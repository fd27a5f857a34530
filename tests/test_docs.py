"""The outputs README.md and docs/checkpoint_format.md show, checked by running
the commands they show in a fresh directory, so a change of output that forgets
the docs fails here."""

import ctypes
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsqnet.cli import main
from fsqnet.ops import openblas_function
from test_cli import GATE_HASHES

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
FORMAT = (ROOT / "docs" / "checkpoint_format.md").read_text(encoding="utf-8")


def _section(text: str, heading: str) -> str:
    """The body of a markdown `## heading` section."""
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str) -> list[list[str]]:
    """The lines of each ```lang fenced block, in order."""
    return [body.splitlines() for body in re.findall(rf"```{lang}\n(.*?)```", text, re.S)]


def _skip_on_another_build():
    """Printed figures come from the float32 kernels, which may round differently on
    another numpy or BLAS core: skip unless this is the build the gate hashes name."""
    get_config = openblas_function("get_config", ctypes.c_char_p)
    build = [f"# numpy {np.__version__}",
             f"# blas {'unknown' if get_config is None else get_config().decode()}"]
    recorded = [line for line in GATE_HASHES.read_text().splitlines() if line.startswith("#")]
    if build != recorded:
        pytest.skip(f"docs recorded on {recorded}, this build is {build}")


def _run(block: list[str], capsys) -> list[tuple[str, list[str]]]:
    """Each command of a ```sh block run in the current directory, with the stdout
    lines it printed: fsqnet in this process, a script in a subprocess.  Lines
    that continue with a backslash are joined; `#` lines are skipped."""
    outputs = []
    text ="\n".join(line for line in block if not line.startswith("#"))
    for command in text.replace("\\\n", " ").splitlines():
        argv = shlex.split(command)
        if argv[0] == "fsqnet" or argv[:3] == ["python3", "-m", "fsqnet"]:
            capsys.readouterr()
            assert main(argv[1 if argv[0] == "fsqnet" else 3:]) == 0, command
            lines = capsys.readouterr().out.splitlines()
        else:
            assert argv[0] == "python3" and argv[1].startswith("scripts/"), command
            lines = subprocess.run([sys.executable, str(ROOT / argv[1]), *argv[2:]],
                                   check=True, capture_output=True, text=True).stdout.splitlines()
        outputs.append((command, lines))
    return outputs


def test_quickstart_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    _skip_on_another_build()
    monkeypatch.chdir(tmp_path)
    quickstart = _section(README, "Quickstart")
    commands, more = _blocks(quickstart, "sh")
    train_tail, confusion = _blocks(quickstart, "text")
    *_, (_, train_out) = _run(commands, capsys)
    assert train_out[-len(train_tail):] == train_tail
    # each command of the second block is followed by a `# output` line;
    # `[...]` there stands for a list the README leaves out
    shown = [line[2:] for line in more if line.startswith("# ")]
    ran = _run(more, capsys)
    assert len(ran) == len(shown)
    for (command, out), line in zip(ran, shown):
        pattern = re.escape(line).replace(re.escape("[...]"), r"\[.*\]")
        assert len(out) == 1 and re.fullmatch(pattern, out[0]), (command, out, line)
    assert Path("conf.csv").read_text().splitlines() == confusion


def test_checkpoint_worked_example_matches_the_hexdump(tmp_path, monkeypatch, capsys):
    _skip_on_another_build()
    monkeypatch.chdir(tmp_path)
    example = _section(FORMAT, "Worked example")
    (commands,), (dump,) = _blocks(example, "sh"), _blocks(example, "text")
    *_, (_, printed) = _run(commands, capsys)
    assert printed == dump


def test_readme_counts_the_gate_lines():
    count = int(re.search(r"(\d+) in all", _section(README, "Tests"))[1])
    hashes = [line for line in GATE_HASHES.read_text().splitlines() if not line.startswith("#")]
    assert count == len(hashes)
