"""The README's library quick start runs as printed."""

import re
from pathlib import Path

from cloudledger import RecoveryAction, RecoveryReport

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").partition("## Quick start (library)\n")[2]
    code = re.match(r"\s*```python\n(.*?)```\n", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} quick start", "exec"), namespace)
    assert namespace["report"] == RecoveryReport(RecoveryAction.RESTORED, 1)
