"""tools/ledger_bytes.py splits the full demo's ledger into kinds that sum to its size, a pending tamper's too."""

import os
import subprocess
import sys
from pathlib import Path

from cloudledger import cli, load_ledger

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_the_kinds_sum_to_the_full_demo_ledger_size(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "PATH": os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")])}
    demo = subprocess.run(["sh", str(REPO_ROOT / "demos" / "full_demo.sh"), str(tmp_path), "42"],
                          capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    assert demo.returncode == 0, demo.stdout + demo.stderr
    directory = tmp_path / "ledger"

    def ledger_bytes():
        """The tool's counts by kind, checked to sum to the directory's size."""
        result = subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "ledger_bytes.py"), str(directory)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        *kinds, total = result.stdout.splitlines()
        counts = {kind: int(count.split(" B")[0]) for kind, _, count in (line.rpartition(": ") for line in kinds)}
        size = sum(path.stat().st_size for path in directory.iterdir())
        assert total == f"total: {size} B" and sum(counts.values()) == size
        return counts

    counts = ledger_bytes()
    ledger = load_ledger(directory)
    assert counts["payloads"] == sum(len(block.payload) + 1 for block in ledger.blocks.values())
    assert counts["entry weight lines"] == sum(len(f"{len(block.payload)}\n") for block in ledger.blocks.values())
    assert counts["operation lines"] == sum(len(point.op) + 1 for point in ledger.points)
    assert counts["chain lines"] == 78 * len(ledger.points)
    assert counts["cluster.state"] == 0 and counts["other files"] == 0
    # A pending tamper adds cluster.state's HEAD line and its fault's line, and nothing else.
    assert cli.run(["--ledger-dir", str(directory), "tamper", "--kind", "same-weight", "--server", "1",
                    "--block", "0"]) == 0
    epoch = ledger.last().epoch
    line = f"HEAD {epoch}\nsame-weight server=1 block=0 seed=42\n".encode()
    assert (directory / "cluster.state").read_bytes() == line
    assert ledger_bytes() == {**counts, "cluster.state": len(line)}
