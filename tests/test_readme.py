"""The README's examples stay runnable: every ``fairhc`` command line of the
CLI block parses, the quick-start block runs, the file-format section names
every key that the parser accepts, and the package layout lists every module."""
import re
import shlex
from pathlib import Path

import pytest

import fairhc
from fairhc.cli import build_parser
from fairhc.netmodel import _FORMAT

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("fairhc ")]


def test_cli_block_found():
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_quick_start_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_format_section_names_every_key():
    section = README.split("## Feeder file format")[1].split("\n## ")[0]
    named = set(re.findall(r"\w+", section))
    keys = {key for table in _FORMAT.values() for key in table}
    assert keys <= named, sorted(keys - named)


def test_package_layout_lists_every_module():
    block = README.split("## Package layout")[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.M))
    modules = {p.name for p in Path(fairhc.__file__).parent.glob("*.py")} - {"__init__.py"}
    assert listed == modules
