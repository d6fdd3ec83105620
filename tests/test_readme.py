"""The README's library quick start runs as printed, its Tests block lists
every script CI runs, and it lists the subcommands and global flags the
CLI parser defines."""

import argparse
import re
from pathlib import Path

from cloudledger import RecoveryAction, RecoveryReport, cli

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


def test_the_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").partition("## Quick start (library)\n")[2]
    code = re.match(r"\s*```python\n(.*?)```\n", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} quick start", "exec"), namespace)
    assert namespace["report"] == RecoveryReport(RecoveryAction.RESTORED, 1)


def test_the_tests_block_lists_every_script_ci_runs():
    section = README.read_text(encoding="utf-8").partition("## Tests\n")[2]
    block = re.match(r"\s*```sh\n(.*?)```\n", section, re.DOTALL).group(1)
    scripts = set(re.findall(r"tests/\w+\.py", WORKFLOW.read_text(encoding="utf-8")))
    assert scripts and sorted(script for script in scripts if script not in block) == []


def readme_list(label: str) -> list[str]:
    """The comma-separated names in backquotes after ``label`` in the README."""
    names = re.search(rf"{label}: `([^`]*)`", README.read_text(encoding="utf-8")).group(1)
    return [name.strip() for name in names.split(",")]


def test_the_readme_lists_the_subcommands_and_global_flags_the_parser_defines():
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = [flag for action in parser._actions for flag in action.option_strings if flag not in ("-h", "--help")]
    assert readme_list("Subcommands") == list(subcommands)
    assert readme_list("Global flags") == flags
