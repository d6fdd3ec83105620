"""The cost target as exact counts: an operation costs O(delta + block count).

One row per call, counted exactly, so no count can flake. The commit row,
on 4096 records over 8 servers: a commit renders one record line per put
made since the last commit (ServerState.put renders its record's line,
and no snapshot renders a whole server again), and it looks up in the
block store only the block its operation wrote: the servers whose
records differ, object for object, from the last point's must hold the
last point's blocks but for that one. The load row, on a small grid of
records n and epochs E of a bound ledger: load_ledger and then
load_cluster on an empty cluster.state parse no snapshot and no manifest,
make n puts for the upload and one put or drop per later epoch, render no
record line but those puts' and one snapshot, the last point's, hash
each stored entry once, and hash, for the chain, each epoch file's bytes
before its chain line and the 64-hex chain of the file before it; every
epoch file, 0.snapshot included, is its line, an entry per block it was
first to store, a reference per other block it wrote, and its chain
line. No point, committed or loaded, holds text: its fields are its
manifest and its record's bytes.
"""

import hashlib
import sys

import pytest

from cloudledger import (
    FaultKind,
    FaultSpec,
    RecoveryAction,
    ServerState,
    append,
    delete,
    generate_payload,
    inject_fault,
    load_ledger,
    make_block,
    recover,
    update,
)
from cloudledger import ledger as ledger_module
from cloudledger.ledger import load_cluster
from helpers import make_committed_state


class CountingFormat(str):
    """A record line format that counts the lines rendered with it."""

    rendered = 0

    def __mod__(self, values):
        CountingFormat.rendered += 1
        return str.__mod__(self, values)


class CountingStore(dict):
    """A block store that lists the digests looked up in it."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.looked_up = []

    def __contains__(self, digest):
        self.looked_up.append(digest)
        return super().__contains__(digest)

    def __getitem__(self, digest):
        self.looked_up.append(digest)
        return super().__getitem__(digest)

    def get(self, digest, default=None):
        self.looked_up.append(digest)
        return super().get(digest, default)


@pytest.fixture
def counted(monkeypatch):
    """A committed 4096-record, 8-server state whose record renders, puts and store lookups are counted."""
    cluster, ledger = make_committed_state(generate_payload(5, 4096 * 16), 8, 16)
    assert len(ledger.last().manifest.records) == 4096
    ledger.blocks = CountingStore(ledger.blocks)
    cluster_module, manifest_module = sys.modules["cloudledger.cluster"], sys.modules["cloudledger.manifest"]
    monkeypatch.setattr(cluster_module, "_RECORD_FORMAT", CountingFormat(cluster_module._RECORD_FORMAT))
    CountingFormat.rendered = 0
    whole, render = [], manifest_module._render_records

    def render_whole(records):
        whole.append(len(records))
        return render(records)

    monkeypatch.setattr(manifest_module, "_render_records", render_whole)
    puts, put = [], ServerState.put

    def counting_put(server, block_id, block):
        puts.append((server.server_index, block_id))
        put(server, block_id, block)

    monkeypatch.setattr(ServerState, "put", counting_put)
    return cluster, ledger, puts, whole


def test_a_commit_renders_one_line_per_put_and_looks_up_only_rewritten_servers(counted):
    cluster, ledger, puts, whole = counted

    def commit_row(operation):
        """Run one step; return (puts, record lines rendered, digests looked up in the store)."""
        puts.clear()
        CountingFormat.rendered = 0
        ledger.blocks.looked_up.clear()
        operation()
        assert whole == []  # nothing renders a whole server's or manifest's records
        return len(puts), CountingFormat.rendered, sorted(ledger.blocks.looked_up)

    changed, appended = make_block(b"changed").digest, make_block(b"appended").digest
    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, [changed])
    assert commit_row(lambda: append(cluster, ledger, 5, b"appended")) == (1, 1, [appended])
    assert commit_row(lambda: delete(cluster, ledger, 2, 7)) == (0, 0, [])
    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, [changed])

    def fault_recover_update():
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 6, 9, seed=1))
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        ledger.blocks.looked_up.clear()  # the restore takes its blocks from the store; count the commit's
        update(cluster, ledger, 1, 4, b"again")

    # The fault and the restore each put a block on server 6, which the commit compares, not looks up.
    assert commit_row(fault_recover_update) == (3, 3, [make_block(b"again").digest])


def epoch_file_bytes(ledger, stored, written):
    """The size of the ledger's last epoch file: its line, an entry per
    block its commit was first to store (the blocks the store gained past
    its first ``stored``), a 65-byte reference per other block of the
    ``written`` its operation wrote, and its 78-byte chain line."""
    added = list(ledger.blocks.values())[stored:]
    entries = sum(len(f"{block.digest} {len(block.payload)}\n") + len(block.payload) + 1 for block in added)
    return len(ledger.last().op) + 1 + entries + 65 * (written - len(added)) + len("CHAIN sha256=") + 65


def assert_no_text(points):
    assert not any(isinstance(field, str) for point in points for field in (*point, *point.manifest))
    assert all(type(point.record) is bytes for point in points)


@pytest.mark.parametrize("records, epochs", [(16, 1), (16, 7), (64, 7), (64, 19)])
def test_a_load_parses_one_snapshot_and_replays_one_write_per_later_epoch(tmp_path, monkeypatch, records, epochs):
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(generate_payload(records, records * 8), 4, 8, directory=directory)
    assert len(ledger.blocks) == records  # distinct blocks: 0.snapshot holds an entry for each, and no reference
    assert (directory / "0.snapshot").stat().st_size == epoch_file_bytes(ledger, 0, records)
    for epoch in range(1, epochs):
        stored = len(ledger.blocks)
        server = epoch % 4
        if epoch % 3 == 1:
            append(cluster, ledger, server, generate_payload(epoch, epoch))
        elif epoch % 3 == 2:  # to bytes the store holds, so the file has no entry
            copied = next(iter(cluster.servers[(server + 1) % 4].blocks.values())).payload
            update(cluster, ledger, server, max(cluster.servers[server].blocks), copied)
        else:
            delete(cluster, ledger, server, min(cluster.servers[server].blocks))
        written = 0 if ledger.last().op.startswith("DELETE") else 1
        assert (directory / f"{epoch}.snapshot").stat().st_size == epoch_file_bytes(ledger, stored, written), epoch
    (directory / "cluster.state").write_bytes(b"")  # the live cluster is the last point
    assert_no_text(ledger.points)

    counts = {"load_snapshot": 0, "parse_manifest": 0, "snapshot_cluster": 0, "writes": 0, "hashed": 0}
    chained = []

    class CountingHashlib:
        """hashlib as the ledger module sees it, listing what it passes to sha256."""

        @staticmethod
        def sha256(data):
            chained.append(len(data))
            return hashlib.sha256(data)

    cluster_module = sys.modules["cloudledger.cluster"]
    monkeypatch.setattr(cluster_module, "_RECORD_FORMAT", CountingFormat(cluster_module._RECORD_FORMAT))
    CountingFormat.rendered = 0

    def counted(module, name, key):
        function = getattr(module, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    counted(ledger_module, "load_snapshot", "load_snapshot")
    counted(ledger_module, "make_block", "hashed")
    counted(ledger_module, "snapshot_cluster", "snapshot_cluster")
    monkeypatch.setattr(ledger_module, "hashlib", CountingHashlib)
    counted(cluster_module, "parse_manifest", "parse_manifest")
    counted(ServerState, "put", "writes")
    counted(ServerState, "drop", "writes")
    loaded = load_ledger(directory)
    live = load_cluster(loaded, 0)
    assert counts == {"load_snapshot": 0, "parse_manifest": 0, "snapshot_cluster": 1,
                      "writes": records + epochs - 1, "hashed": len(loaded.blocks)}
    sizes = [(directory / f"{epoch}.snapshot").stat().st_size for epoch in range(epochs)]
    assert chained == [size - 78 + 64 * (epoch > 0) for epoch, size in enumerate(sizes)]
    assert CountingFormat.rendered == records + sum(not point.op.startswith("DELETE") for point in ledger.points[1:])
    assert loaded.points == ledger.points
    assert_no_text(loaded.points)
    assert [server.records for server in live.servers] == [server.records for server in cluster.servers]
