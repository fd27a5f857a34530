"""From-scratch SqueezeNet training and inference for fingerspelling images."""
