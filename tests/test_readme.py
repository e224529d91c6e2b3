"""The README's examples run: the Python quickstart, and every `vircut`
line of its command block but check-all (the battery has its own tests)."""

import re
from pathlib import Path

import pytest

from vircut.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# my_field.csv as the command block uses it: exact, real, modes +-2
MY_FIELD = "n,re,im\n2,1/2,0\n-2,1/2,0\n"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


COMMANDS = [line.split("#")[0].split()[1:] for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("vircut ")]
COMMANDS = [argv for argv in COMMANDS if argv != ["check-all"]]


def test_readme_has_one_quickstart_and_the_commands():
    assert len(_blocks("python")) == 1
    assert len(COMMANDS) == 11


def test_quickstart_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_blocks("python")[0], "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_field.csv").write_text(MY_FIELD)
    assert main(argv) == 0, " ".join(["vircut", *argv])
