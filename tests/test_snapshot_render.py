"""Snapshot text from the lines each server keeps, against a render from scratch.

snapshot_cluster joins the record lines put rendered, the digest lines
each server rendered on the first snapshot after its last put or drop,
and the weight totals kept beside them, so a commit renders one record
line per put, one manifest header line per server, and joins only the
servers written since. The reference below renders every line again: the
snapshot header, then for each server in order its section,
serialize_manifest of the stored manifest cut to that server's records
(its total summed from them), every block's digest and END; live status
is no part of a snapshot. After each step of a seeded random sequence
(operations, every fault kind, recover, a rolled-back operation, and
loads of committed points into a cluster of another server count) both
must give the same text. Run as a script, it checks a larger seeded set:

    PYTHONPATH=src python -X dev -W error tests/test_snapshot_render.py
"""

import random
import sys

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    PostStateCorrupt,
    RecoveryAction,
    append,
    delete,
    inject_fault,
    load_snapshot,
    new_cluster,
    recover,
    serialize_manifest,
    snapshot_cluster,
    update,
)
from cloudledger.cluster import SNAPSHOT_HEADER, stored_manifest
from helpers import make_committed_state


def reference_snapshot(cluster):
    """The cluster's snapshot text with every line rendered anew, one section per server."""
    manifest, sections = stored_manifest(cluster), []
    for server in cluster.servers:
        records = tuple(record for record in manifest.records if record.server_index == server.server_index)
        digests = "".join(f"{block.digest}\n" for block in server.blocks.values())
        sections.append(f"{serialize_manifest(manifest._replace(records=records))}{digests}END\n")
    return f"{SNAPSHOT_HEADER}\n{''.join(sections)}"


def assert_renders_anew(cluster):
    assert snapshot_cluster(cluster) == reference_snapshot(cluster)


def some_block(rng, cluster, least=1):
    """A random (server, block id) of a non-empty block on a server holding
    at least ``least`` blocks, or None if there is none."""
    held = [(server.server_index, block_id) for server in cluster.servers if len(server.blocks) >= least
            for block_id, block in server.blocks.items() if block.payload]
    return rng.choice(held) if held else None


class Abort(Exception):
    pass


def check_sequence(seed, steps):
    rng = random.Random(seed)
    servers = rng.randrange(1, 5)
    payload = rng.randbytes(rng.randrange(1, 300))
    cluster, ledger = make_committed_state(payload, servers, rng.randrange(4, 32), seed=seed)
    other = new_cluster(rng.randrange(1, 6))
    assert_renders_anew(cluster)
    assert_renders_anew(other)
    texts = [ledger.last_snapshot]  # each point's snapshot text, as its commit left it
    kinds = ["append", "update", "delete", "fault", "rollback", "load"]
    for kind in kinds + [rng.choice(kinds) for _ in range(steps)]:
        target = some_block(rng, cluster, least=2 if kind == "delete" else 1)
        if kind == "append" or target is None:
            append(cluster, ledger, rng.randrange(servers), rng.randbytes(rng.randrange(0, 24)))
        elif kind == "update":
            update(cluster, ledger, *target, rng.randbytes(rng.randrange(0, 24)))
        elif kind == "delete":
            delete(cluster, ledger, *target)
        elif kind == "fault":
            fault = FaultSpec(rng.choice(list(FaultKind)), target[0], target[1], seed=rng.randrange(1 << 16))
            if fault.kind is FaultKind.CSP_STALE_MANIFEST and cluster.epoch == 0:
                continue
            inject_fault(cluster, fault)
            assert_renders_anew(cluster)
            assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        elif kind == "rollback":
            sabotage = FaultSpec(rng.choice([FaultKind.FLIP_BYTE, FaultKind.DROP_BLOCK, FaultKind.SERVER_CRASH]),
                                 *target, seed=rng.randrange(1 << 16))
            with pytest.raises(PostStateCorrupt):
                append(cluster, ledger, rng.randrange(servers), rng.randbytes(rng.randrange(0, 24)),
                       post_mutation_hook=lambda c: inject_fault(c, sabotage))
            assert_renders_anew(cluster)

            def abort(c):
                inject_fault(c, FaultSpec(FaultKind.TRUNCATE, *target))
                assert_renders_anew(c)
                raise Abort

            with pytest.raises(Abort):
                update(cluster, ledger, *target, rng.randbytes(rng.randrange(1, 24)), post_mutation_hook=abort)
            assert snapshot_cluster(cluster) == ledger.last_snapshot
        else:
            if rng.randrange(2):
                other = new_cluster(rng.randrange(1, 6))
                assert_renders_anew(other)
            text = rng.choice(texts)
            load_snapshot(text, ledger.blocks, into=other)
            assert snapshot_cluster(other) == text
            assert_renders_anew(other)
        assert_renders_anew(cluster)
        texts[len(ledger.points) - 1 :] = [ledger.last_snapshot]


@pytest.mark.parametrize("seed", range(12))
def test_kept_lines_render_as_a_snapshot_from_scratch(seed):
    check_sequence(seed, steps=40)


def main():
    for seed in range(1000, 1300):
        check_sequence(seed, steps=120)
    print("snapshots from kept lines equal snapshots rendered anew")
    return 0


if __name__ == "__main__":
    sys.exit(main())
