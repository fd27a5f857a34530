import numpy as np

from fsqnet.tensor import derive_seed, he_init, rng_from_seed


class TestHeInit:
    def test_deterministic(self):
        a = he_init((4, 4), fan_in=16, seed=99)
        b = he_init((4, 4), fan_in=16, seed=99)
        assert np.array_equal(a, b)

    def test_seed_changes_values(self):
        a = he_init((4, 4), fan_in=16, seed=1)
        b = he_init((4, 4), fan_in=16, seed=2)
        assert not np.array_equal(a, b)

    def test_scale_follows_fan_in(self):
        fan_in = 50
        draws = he_init((200, 200), fan_in=fan_in, seed=0)
        expected = np.sqrt(2.0 / fan_in)
        assert abs(draws.std() - expected) < 0.05 * expected


class TestRng:
    def test_stream_deterministic(self):
        a = rng_from_seed(7).random(5)
        b = rng_from_seed(7).random(5)
        assert np.array_equal(a, b)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 100

    def test_derive_seed_order_matters(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
