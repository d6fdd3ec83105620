"""Stored blocks are the single source of their (weight, checksum).

make_block hashes a payload when it is stored; every cloud-side reader
uses those digests instead of rehashing. These tests pin how many bytes
each step hashes, and how many bytes a commit adds to the ledger
directory, and check the invariant that makes stored digests safe to
read: after any operation or fault, each block's digests still match its
bytes.
"""

import ast
import hashlib
import sys
from pathlib import Path

import pytest

import cloudledger
from cloudledger import (
    BlockRecord,
    FaultKind,
    FaultSpec,
    Mode,
    RecoveryAction,
    append,
    delete,
    fnv1a64,
    generate_payload,
    inject_fault,
    load_ledger,
    load_snapshot,
    make_block,
    parse_manifest,
    read_manifest,
    recover,
    snapshot_cluster,
    update,
    UnverifiedState,
    verify_equality,
)
from helpers import make_committed_state

STORE_BYTES = 64 * 1024
APPEND_BYTES = 100
APPENDS = 10


def tally(monkeypatch, function, measure, action):
    """Run action with function wrapped under every cloudledger binding;
    return the sum of measure(argument) over its calls, and action's result."""
    counted = []

    def counting(argument):
        counted.append(measure(argument))
        return function(argument)

    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cloudledger" and getattr(module, function.__name__, None) is function:
                patch.setattr(module, function.__name__, counting)
        result = action()
    return sum(counted), result


def bytes_hashed(monkeypatch, action):
    return tally(monkeypatch, fnv1a64, len, action)


def directory_bytes(directory):
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


@pytest.fixture
def appended(monkeypatch, tmp_path):
    """A committed 64 KiB store (4 servers, B=4096, seed 42) plus one 100 B append."""
    cluster, ledger = make_committed_state(
        generate_payload(42, STORE_BYTES), 4, 4096, seed=42, directory=tmp_path / "ledger"
    )
    hashed, result = bytes_hashed(
        monkeypatch, lambda: append(cluster, ledger, 0, generate_payload(43, APPEND_BYTES))
    )
    assert result.new_epoch == 1
    return cluster, ledger, hashed


def test_append_hashes_only_the_new_payload(appended):
    # once when the cloud stores the block, once for the client's expected record
    assert appended[2] == 2 * APPEND_BYTES


def test_verify_hashes_nothing(appended, monkeypatch):
    cluster, ledger, _ = appended
    hashed, verdict = bytes_hashed(
        monkeypatch, lambda: verify_equality(ledger.last().manifest, read_manifest(cluster), Mode.CHECKSUM)
    )
    assert verdict.z
    assert hashed == 0


def test_load_snapshot_hashes_each_stored_byte_once(appended, monkeypatch):
    # Reading the block store back from disk hashes each stored byte once;
    # resolving the snapshot's references against it hashes nothing more.
    cluster, ledger, _ = appended
    snapshot = ledger.last_snapshot
    hashed, loaded = bytes_hashed(
        monkeypatch, lambda: load_snapshot(snapshot, load_ledger(ledger.directory).blocks)
    )
    assert snapshot_cluster(loaded) == snapshot
    assert hashed == STORE_BYTES + APPEND_BYTES
    hashed, loaded = bytes_hashed(monkeypatch, lambda: load_snapshot(snapshot, ledger.blocks))
    assert snapshot_cluster(loaded) == snapshot
    assert hashed == 0


def test_intact_recover_hashes_nothing(appended, monkeypatch):
    cluster, ledger, _ = appended
    hashed, report = bytes_hashed(monkeypatch, lambda: recover(ledger, cluster))
    assert report.action is RecoveryAction.INTACT
    assert hashed == 0


def test_a_same_weight_fault_hashes_its_substitute_once(appended, monkeypatch):
    # make_block hashes each candidate once, and the fault puts that very block.
    cluster, _, _ = appended
    fault = FaultSpec(FaultKind.SAME_WEIGHT_SUBSTITUTE, 2, 3, seed=5)
    hashed, report = bytes_hashed(monkeypatch, lambda: inject_fault(cluster, fault))
    assert report.after.weight == report.before.weight == 4096
    assert report.after.checksum != report.before.checksum
    assert hashed == 4096


@pytest.fixture
def eleven_epochs(tmp_path):
    """The 64 KiB store above, then ten 100 B appends on servers i % 4.

    Returns the ledger directory and the bytes each append added to it.
    """
    directory = tmp_path / "ledger"
    cluster, ledger = make_committed_state(
        generate_payload(42, STORE_BYTES), 4, 4096, seed=42, directory=directory
    )
    growth = []
    for i in range(APPENDS):
        before = directory_bytes(directory)
        append(cluster, ledger, i % 4, generate_payload(43 + i, APPEND_BYTES))
        growth.append(directory_bytes(directory) - before)
    return directory, growth


def test_load_ledger_hashes_each_distinct_stored_byte_once(eleven_epochs, monkeypatch):
    directory, _ = eleven_epochs
    hashed, ledger = bytes_hashed(monkeypatch, lambda: load_ledger(directory))
    assert len(ledger.points) == APPENDS + 1
    assert hashed == STORE_BYTES + APPENDS * APPEND_BYTES


def test_load_ledger_parses_each_epoch_manifest_once(eleven_epochs, monkeypatch):
    # No epoch file stores a manifest: the upload and every later epoch are replayed.
    directory, _ = eleven_epochs
    assert not list(directory.glob("*.manifest"))
    parsed, ledger = tally(monkeypatch, parse_manifest, lambda text: 1, lambda: load_ledger(directory))
    assert len(ledger.points) == APPENDS + 1
    assert parsed == 0


def test_append_adds_about_its_delta_to_the_ledger_directory(eleven_epochs):
    # A full payload copy would add over 64 KiB per commit, and a full
    # snapshot 2.6 KiB. An epoch file holds its operation line, the entry
    # of the appended block and its chain line.
    _, growth = eleven_epochs
    assert max(growth) <= APPEND_BYTES + 300


def assert_digests_match_payloads(cluster):
    for server in cluster.servers:
        for block_id, block in server.blocks.items():
            assert server.records[block_id] == BlockRecord(server.server_index, block_id, len(block.payload),
                                                           block.checksum)
            assert block.checksum == fnv1a64(block.payload)
            assert block.digest == hashlib.sha256(block.payload).hexdigest()


def test_stored_digests_match_payloads_after_every_op_and_fault():
    payload = generate_payload(7, 300)
    cluster, ledger = make_committed_state(payload, 3, 16, seed=7)
    steps = [
        lambda: append(cluster, ledger, 1, b"appended bytes"),
        lambda: update(cluster, ledger, 2, 0, b"new"),
        lambda: delete(cluster, ledger, 0, 1),
    ]
    for step in steps:
        step()
        assert_digests_match_payloads(cluster)

    for kind in FaultKind:
        inject_fault(cluster, FaultSpec(kind, target_server=0, target_block=2, seed=11))
        assert_digests_match_payloads(cluster)
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        assert_digests_match_payloads(cluster)


def test_data_block_is_built_only_by_make_block():
    def builds_data_block(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            func = func.value
        return isinstance(func, ast.Name) and func.id == "DataBlock"

    sites = []
    for path in sorted(Path(cloudledger.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_make_block = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "make_block"
            for node in ast.walk(function)
        }
        sites += [(path.name, id(node) in in_make_block) for node in ast.walk(tree) if builds_data_block(node)]
    assert sites == [("manifest.py", True)]


# Two 14-byte payloads with one FNV-1a 64 checksum, 0xb8e810e79816271b (found
# by lattice reduction; FNV-1a is not collision resistant). A block of either
# has the weight and checksum of a block of the other, so its record is equal.
FNV_TWINS = (bytes.fromhex("0164487102040026a337050d1731"), bytes.fromhex("0725cf1d33000c18a7061a0b0932"))


@pytest.mark.parametrize("bound", [False, True], ids=["in-memory", "bound"])
def test_a_commit_refuses_a_block_its_operation_did_not_write(tmp_path, bound):
    """A post-mutation hook puts, beside an append on server 0 or on server
    1, a block whose record equals the one it replaces on server 1 (its
    FNV twin: same weight, same checksum, other bytes) and renders a
    snapshot before the commit. The verdicts pass, as the records are
    equal, but an epoch file records only the block its operation wrote,
    so the commit is refused: nothing joins the ledger or its directory,
    and the rollback puts the committed block back."""
    first, second = FNV_TWINS
    payload = bytearray(generate_payload(3, 14 * 8))
    payload[14:28] = first  # global block 1: server 1, block 0
    twin = make_block(second)

    def hook(cluster):
        cluster.servers[1].put(0, twin)
        snapshot_cluster(cluster)

    for server in (0, 1):
        directory = tmp_path / f"ledger{server}" if bound else None
        cluster, ledger = make_committed_state(bytes(payload), 4, 14, directory=directory)
        assert first != second and cluster.servers[1].records[0] == BlockRecord(1, 0, len(second), twin.checksum)
        points, blocks = list(ledger.points), dict(ledger.blocks)
        files = {path.name: path.read_bytes() for path in directory.iterdir()} if bound else None
        with pytest.raises(UnverifiedState, match=f"server 1: it holds a block 'APPEND server={server} block=2'"):
            append(cluster, ledger, server, b"appended", post_mutation_hook=hook)
        assert ledger.points == points and ledger.blocks == blocks
        assert cluster.servers[1].blocks[0].payload == first
        assert snapshot_cluster(cluster) == ledger.last_snapshot
        if bound:
            assert {path.name: path.read_bytes() for path in directory.iterdir()} == files
            assert load_ledger(directory).points == ledger.points
