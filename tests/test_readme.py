"""The README's library quick start runs as printed, and its Tests block lists every script CI runs."""

import re
from pathlib import Path

from cloudledger import RecoveryAction, RecoveryReport

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
