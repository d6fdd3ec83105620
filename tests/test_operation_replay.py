"""Seeded operation sequences on a bound ledger load as committed.

ops.apply predicts each operation's manifest with ledger.operation_records,
and load_ledger checks every persisted epoch with the same splice. A
seeded random sequence of library operations (appends, updates to new,
identical, another block's and empty bytes, deletes, then deletes down
to an empty server and appends to it) runs on a ledger bound to a
directory, and the points loaded from that directory must equal the
committed ones, field by field. Run as a script, it checks a larger
seeded set:

    PYTHONPATH=src python -X dev -W error tests/test_operation_replay.py
"""

import random
import sys
import tempfile
from pathlib import Path

import pytest

from cloudledger import append, delete, load_ledger, update
from helpers import make_committed_state

KINDS = ("append", "update", "identical", "copy", "empty", "delete")


def check_sequence(seed, steps, directory):
    rng = random.Random(seed)
    servers = rng.randrange(1, 5)
    cluster, ledger = make_committed_state(rng.randbytes(rng.randrange(1, 200)), servers, rng.randrange(4, 32),
                                           seed=seed, directory=directory)
    for kind in KINDS + tuple(rng.choice(KINDS) for _ in range(steps)):
        held = [(server.server_index, block_id) for server in cluster.servers for block_id in server.blocks]
        if kind == "append" or not held:
            append(cluster, ledger, rng.randrange(servers), rng.randbytes(rng.randrange(0, 24)))
        elif kind == "delete":
            delete(cluster, ledger, *rng.choice(held))
        else:
            server, block_id = rng.choice(held)
            other, other_id = rng.choice(held)
            payload = {"update": rng.randbytes(rng.randrange(1, 24)),
                       "identical": cluster.servers[server].blocks[block_id].payload,
                       "copy": cluster.servers[other].blocks[other_id].payload,
                       "empty": b""}[kind]
            update(cluster, ledger, server, block_id, payload)
    emptied = rng.randrange(servers)
    for block_id in rng.sample(sorted(cluster.servers[emptied].blocks), len(cluster.servers[emptied].blocks)):
        delete(cluster, ledger, emptied, block_id)
    assert not cluster.servers[emptied].blocks
    for _ in range(rng.randrange(1, 4)):
        append(cluster, ledger, emptied, rng.randbytes(rng.randrange(0, 24)))
    assert load_ledger(directory).points == ledger.points


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
