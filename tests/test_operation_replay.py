"""Seeded operation sequences on a bound ledger load as committed.

ops.apply predicts each operation's manifest with ledger.operation_records,
and load_ledger replays every persisted epoch's operation, which leaves
the same splice. No epoch file holds a hash of the state, so the replay
is cross-checked here instead. A seeded random sequence of library
operations (appends, updates to new, identical, another block's and
empty bytes, deletes, faults of every kind each followed by recover,
operations ops.apply refuses, then deletes down to an empty server and
appends to it) runs on a ledger bound to a directory, and the points
loaded from that directory must
equal the committed ones, field by field: each point's record is its
epoch file's bytes, as committed, and the loaded ledger's last snapshot
text is the committed cluster's.
The totals stay exact on the way: each result's s_before and s_after are
the totals of the points before and after it, and after every step the
cluster's kept total, cluster.total_stored_bytes(), is the stored bytes
counted block by block. A refused operation (an update or a delete of an
id the server does not hold, a freed one included, an append of another
id than the server's next, or any kind on a server past the count) raises
NoSuchTarget before any write: the cluster, the ledger and every file in
the directory are as they were, and the sequence still loads as
committed. Run as a script, it checks a larger seeded set:

    PYTHONPATH=src python -X dev -W error tests/test_operation_replay.py
"""

import random
import sys
import tempfile
from pathlib import Path

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    NoSuchTarget,
    OperationKind,
    OperationRequest,
    RecoveryAction,
    append,
    apply,
    delete,
    inject_fault,
    load_ledger,
    recover,
    snapshot_cluster,
    update,
)
from helpers import make_committed_state, state_fingerprint

KINDS = ("append", "update", "identical", "copy", "empty", "delete", "fault", "refused")
NEEDS_BYTES = {FaultKind.FLIP_BYTE, FaultKind.TRUNCATE, FaultKind.SAME_WEIGHT_SUBSTITUTE}


def assert_total_exact(cluster):
    assert cluster.total_stored_bytes() == sum(len(block.payload) for server in cluster.servers
                                               for block in server.blocks.values())


def operate(cluster, ledger, operation, *args):
    """Run one operation; its totals must be those of the points before and after it."""
    before = ledger.last().manifest.total_weight
    result = operation(cluster, ledger, *args)
    assert (result.s_before, result.s_after) == (before, ledger.last().manifest.total_weight)
    assert_total_exact(cluster)


def fault_and_recover(rng, cluster, ledger):
    """Inject a seeded fault of a random kind at a target it applies to, then recover."""
    kind = rng.choice(list(FaultKind))
    targets = [(server.server_index, block_id) for server in cluster.servers
               for block_id, block in server.blocks.items() if kind not in NEEDS_BYTES or block.payload]
    if kind in (FaultKind.SERVER_CRASH, FaultKind.CSP_STALE_MANIFEST) or not targets:
        spec = FaultSpec(FaultKind.SERVER_CRASH if not targets else kind, rng.randrange(cluster.server_count))
    else:
        spec = FaultSpec(kind, *rng.choice(targets), seed=rng.randrange(1 << 16))
    inject_fault(cluster, spec)
    assert_total_exact(cluster)
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED
    assert_total_exact(cluster)


def refuse(rng, cluster, ledger, directory):
    """Run a random operation ops.apply refuses, on a server up to two past
    the count; it must raise NoSuchTarget and change no state or file."""
    kind = rng.choice(list(OperationKind))
    server = rng.randrange(cluster.server_count + 2)
    held = cluster.servers[server].blocks if server < cluster.server_count else {}
    next_id = max(held, default=-1) + 1
    if kind is OperationKind.APPEND and server < cluster.server_count:  # any id but the next
        ids = [block_id for block_id in range(next_id + 2) if block_id != next_id]
    else:  # any id the server does not hold, a freed one included
        ids = [block_id for block_id in range(next_id + 2) if block_id not in held]
    payload = None if kind is OperationKind.DELETE else rng.randbytes(rng.randrange(0, 24))
    request = OperationRequest(kind, server, rng.choice(ids), payload, cluster.epoch)
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    before = state_fingerprint(cluster, ledger)
    with pytest.raises(NoSuchTarget):
        apply(cluster, ledger, request)
    assert state_fingerprint(cluster, ledger) == before
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == files


def check_sequence(seed, steps, directory):
    rng = random.Random(seed)
    servers = rng.randrange(1, 5)
    cluster, ledger = make_committed_state(rng.randbytes(rng.randrange(1, 200)), servers, rng.randrange(4, 32),
                                           seed=seed, directory=directory)
    assert_total_exact(cluster)
    for kind in KINDS + tuple(rng.choice(KINDS) for _ in range(steps)):
        held = [(server.server_index, block_id) for server in cluster.servers for block_id in server.blocks]
        if kind == "fault":
            fault_and_recover(rng, cluster, ledger)
        elif kind == "refused":
            refuse(rng, cluster, ledger, directory)
        elif kind == "append" or not held:
            operate(cluster, ledger, append, rng.randrange(servers), rng.randbytes(rng.randrange(0, 24)))
        elif kind == "delete":
            operate(cluster, ledger, delete, *rng.choice(held))
        else:
            server, block_id = rng.choice(held)
            other, other_id = rng.choice(held)
            payload = {"update": rng.randbytes(rng.randrange(1, 24)),
                       "identical": cluster.servers[server].blocks[block_id].payload,
                       "copy": cluster.servers[other].blocks[other_id].payload,
                       "empty": b""}[kind]
            operate(cluster, ledger, update, server, block_id, payload)
    emptied = rng.randrange(servers)
    for block_id in rng.sample(sorted(cluster.servers[emptied].blocks), len(cluster.servers[emptied].blocks)):
        operate(cluster, ledger, delete, emptied, block_id)
    assert not cluster.servers[emptied].blocks
    for _ in range(rng.randrange(1, 4)):
        operate(cluster, ledger, append, emptied, rng.randbytes(rng.randrange(0, 24)))
    loaded = load_ledger(directory)
    assert loaded.points == ledger.points
    files = [(directory / f"{point.epoch}.snapshot").read_bytes() for point in ledger.points]
    assert [point.record for point in loaded.points] == [point.record for point in ledger.points] == files
    assert loaded.last_snapshot == ledger.last_snapshot == snapshot_cluster(cluster)


@pytest.mark.parametrize("seed", range(10))
def test_seeded_operations_load_as_committed(tmp_path, seed):
    check_sequence(seed, steps=24, directory=tmp_path / "ledger")


def main():
    with tempfile.TemporaryDirectory() as root:
        for seed in range(1000, 1200):
            check_sequence(seed, steps=60, directory=Path(root) / str(seed))
    print("every seeded operation sequence loads as committed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
