"""The cost target as exact counts: an operation costs O(delta + block count).

One row per call, counted on 4096 records over 8 servers, so no count can
flake. The commit row: a commit renders one record line per put made since
the last commit (ServerState.put renders its record's line, and no
snapshot renders a whole server again), and it looks up in the block
store only the blocks of the servers whose records differ, object for
object, from the last point's.
"""

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
    recover,
    update,
)
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


def blocks_of(cluster, *servers):
    return sorted(block.digest for server in servers for block in cluster.servers[server].blocks.values())


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

    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, blocks_of(cluster, 3))
    assert commit_row(lambda: append(cluster, ledger, 5, b"appended")) == (1, 1, blocks_of(cluster, 5))
    assert commit_row(lambda: delete(cluster, ledger, 2, 7)) == (0, 0, blocks_of(cluster, 2))
    assert commit_row(lambda: update(cluster, ledger, 3, 100, b"changed")) == (1, 1, blocks_of(cluster, 3))

    def fault_recover_update():
        inject_fault(cluster, FaultSpec(FaultKind.FLIP_BYTE, 6, 9, seed=1))
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        ledger.blocks.looked_up.clear()  # the restore takes its blocks from the store; count the commit's
        update(cluster, ledger, 1, 4, b"again")

    # The fault and the restore each put a block on server 6, so the commit looks it up too.
    assert commit_row(fault_recover_update) == (3, 3, blocks_of(cluster, 1, 6))
