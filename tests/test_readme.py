"""The README's examples stay runnable: every ``fairhc`` command line of the
CLI block parses, the quick-start block runs, the file-format section names
every key that the parser accepts and states every declared range, and the
package layout lists every module and names only constants that exist."""
import dataclasses
import importlib
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


def test_format_section_states_every_range():
    """Each key whose field declares a range appears in a clause such as
    "`x_ohm` and `p_kw` ≥ 0", and no clause states a range that is not declared."""
    section = README.split("## Feeder file format")[1].split("\n## ")[0]
    stated = {key: f"{op} {bound}" for keys, op, bound in
              re.findall(r"((?:`\w+`(?:,|\s+and)?\s+)+)(>|≥) (\d+)", section)
              for key in re.findall(r"`(\w+)`", keys)}
    declared = {}
    for cls, table in _FORMAT.items():
        ranges = {f.name: f.metadata["range"] for f in dataclasses.fields(cls) if "range" in f.metadata}
        for key, (name, _) in table.items():
            op, bound = ranges.get(name, ("in", None))
            if op != "in":
                declared[key] = f"{'≥' if op == '>=' else op} {bound:g}"
    assert stated == declared


def test_package_layout_lists_every_module():
    block = README.split("## Package layout")[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.M))
    modules = {p.name for p in Path(fairhc.__file__).parent.glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_package_layout_names_only_existing_constants():
    block = README.split("## Package layout")[1].split("```")[1]
    named = set(re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", block))
    modules = [importlib.import_module(f"fairhc.{p.stem}") for p in Path(fairhc.__file__).parent.glob("*.py")]
    missing = {name for name in named if not any(hasattr(module, name) for module in modules)}
    assert named and not missing, sorted(missing)
