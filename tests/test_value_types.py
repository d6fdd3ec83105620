"""Value types and CLI start-up.

Immutable values are NamedTuples and cluster and ledger state are plain
classes, so importing the CLI loads neither ``dataclasses`` nor
``inspect``: importing them and decorating classes would add start-up
time to every CLI command.
"""

import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cloudledger
from cloudledger import (
    AuditGrant,
    DataBlock,
    Divergence,
    DivergenceKind,
    FaultKind,
    FaultReport,
    FaultSpec,
    Level,
    Manifest,
    Mode,
    OperationKind,
    OperationRequest,
    OperationResult,
    RecoveryAction,
    RecoveryReport,
    RestorePoint,
    Verdict,
)
from cloudledger.cli import SimConfig
from helpers import make_committed_state

MANIFEST = Manifest(Level.USER, 0, (), 1)
VERDICT = Verdict(True, Mode.CHECKSUM, (), 0)
IMMUTABLE = {  # one value of each former frozen class, and one of its fields
    "Manifest": (MANIFEST, "records"),
    "Divergence": (Divergence(0, 0, DivergenceKind.MISSING, None, None), "kind"),
    "Verdict": (VERDICT, "z"),
    "FaultSpec": (FaultSpec(FaultKind.DROP_BLOCK, 0, 0), "target_block"),
    "FaultReport": (FaultReport(FaultKind.DROP_BLOCK, 0, 0, None, None, "block dropped"), "after"),
    "RecoveryReport": (RecoveryReport(RecoveryAction.INTACT, 0), "action"),
    "OperationRequest": (OperationRequest(OperationKind.DELETE, 0, 0), "epoch_expected"),
    "OperationResult": (OperationResult(OperationKind.DELETE, 0, 0, 1, VERDICT, VERDICT, 5, -5, 0), "s_after"),
    "AuditGrant": (AuditGrant(0, 0, Mode.CHECKSUM), "mode"),
    "SimConfig": (SimConfig(4, 4096, Mode.CHECKSUM, 42), "seed"),
    "RestorePoint": (RestorePoint(MANIFEST, b""), "record"),
}


@pytest.mark.parametrize("value, field", IMMUTABLE.values(), ids=IMMUTABLE)
def test_values_reject_attribute_assignment(value, field):
    for attribute in (field, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, None)


def test_restore_point_equality_includes_its_record():
    """A point is its manifest and its record, the bytes of its epoch file,
    and compares on both; its operation line is the record's first line."""
    _, ledger = make_committed_state(b"abcdef", 2, 2)
    point = ledger.last()
    assert RestorePoint._fields == ("manifest", "record") and point.op == "UPLOAD v12 servers=2"
    rebuilt = RestorePoint(point.manifest, bytes(point.record))
    assert rebuilt == point and hash(rebuilt) == hash(point)
    assert point._replace(record=point.record + b"\n") != point
    assert point._replace(manifest=point.manifest._replace(epoch=1)) != point


def test_a_point_copies_only_its_operation_line_to_read_it():
    """Every CLI command but history reads 0.snapshot's line, so reading it
    must not copy the multi-MiB rest of the record; a record with no LF is
    its line."""
    line = b"UPDATE server=1 block=2"
    point = RestorePoint(MANIFEST, line + b"\n" + bytes(8 << 20))
    tracemalloc.start()
    try:
        assert point.op == line.decode()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert RestorePoint(MANIFEST, line).op == line.decode()


def test_a_block_is_its_content_and_a_point_derives_its_tick():
    assert DataBlock._fields == ("payload", "checksum", "digest")
    points = [RestorePoint(MANIFEST._replace(epoch=epoch), b"") for epoch in range(3)]
    assert [(point.epoch, point.timestamp) for point in points] == [(0, 1), (1, 2), (2, 3)]


def import_the_cli(src):
    """Import cloudledger.cli from ``src`` in an isolated interpreter (-I -S,
    as CI's stdlib-only check does) that writes no bytecode (-B: -I ignores
    PYTHONDONTWRITEBYTECODE), and return what the child prints: the
    modules among dataclasses, inspect, ast and dis that it loaded."""
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import cloudledger.cli;"
        " print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    return subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True,
                          check=True).stdout


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    assert import_the_cli(Path(cloudledger.__file__).parents[1]) == "[]\n"


def test_importing_the_cli_writes_no_bytecode(tmp_path):
    """A bytecode cache left in the checkout speeds up every later CLI
    process, so a benchmark run after the tests would measure it."""
    package = Path(cloudledger.__file__).parent
    shutil.copytree(package, tmp_path / "cloudledger", ignore=shutil.ignore_patterns("__pycache__"))
    assert import_the_cli(tmp_path) == "[]\n"
    assert not list(tmp_path.rglob("__pycache__"))
