"""ServerState.put and drop: the one write path to stored blocks.

Each server keeps the record of every block it stores, written beside the
block by put and drop, and every cloud manifest joins those records. These
tests check the maintained records against a full rebuild from the stored
blocks, that nothing else in the package writes either dict or the
record lines put renders beside them, and that a commit shares the
records it did not change with the previous point (tests/test_cost_shape.py
counts what a commit renders and looks up). The files of a ledger
directory have one writer too, ledger.write_file, and a test checks that
nothing else in the package writes a file.
"""

import ast
import random
from pathlib import Path

import pytest

import cloudledger
from cloudledger import (
    BlockRecord,
    FaultKind,
    FaultSpec,
    Ledger,
    Level,
    Manifest,
    Mode,
    PostStateCorrupt,
    RecoveryAction,
    append,
    commit_restore_point,
    delete,
    fnv1a64,
    generate_payload,
    inject_fault,
    load_ledger,
    load_snapshot,
    new_cluster,
    partition_upload,
    read_manifest,
    recover,
    round_trip_verify,
    snapshot_cluster,
    update,
    upload,
    verify_equality,
)
from cloudledger.ledger import load_cluster, save_cluster
from helpers import make_committed_state


def rebuilt_records(server):
    """A server's records rebuilt from its stored blocks, keyed and sorted by block id."""
    return tuple(
        BlockRecord(server.server_index, block_id, len(block.payload), block.checksum)
        for block_id, block in sorted(server.blocks.items())
    )


def rebuilt_read_manifest(cluster, ledger):
    """read_manifest as defined before servers kept records: the records
    rebuilt from the blocks of the servers no listed crash names, with
    those unavailable, or, while a stale-manifest fault is listed, the
    records committed at epoch - 1. The live status is read from
    cluster.faults here, not through the cluster module."""
    if any(fault.kind is FaultKind.CSP_STALE_MANIFEST for fault in cluster.faults):
        records = ledger.points[cluster.epoch - 1].manifest.records
        return Manifest(Level.CLOUD, cluster.epoch, records, cluster.server_count)
    dead = frozenset(fault.target_server for fault in cluster.faults if fault.kind is FaultKind.SERVER_CRASH)
    records = tuple(r for s in cluster.servers if s.server_index not in dead for r in rebuilt_records(s))
    return Manifest(Level.CLOUD, cluster.epoch, records, cluster.server_count, dead)


def assert_records_match_a_rebuild(cluster, ledger, mode):
    """The maintained records equal a rebuild, and a second read, with no
    write between, returns the very record tuple of the first."""
    for server in cluster.servers:
        assert tuple(server.records.values()) == rebuilt_records(server)
        assert list(server.records) == list(server.blocks)
    live, again, rebuilt = read_manifest(cluster), read_manifest(cluster), rebuilt_read_manifest(cluster, ledger)
    assert live == again == rebuilt
    assert again.records is live.records
    committed = ledger.last().manifest
    assert verify_equality(committed, live, mode) == verify_equality(committed, rebuilt, mode)


def random_payload(rng):
    return rng.randbytes(rng.randrange(1, 24))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", list(Mode))
def test_maintained_records_equal_a_full_rebuild(mode, seed, tmp_path):
    """Every step is checked against a rebuild: operations, faults and their
    recovery, rolled-back operations, a snapshot of another server count
    loaded into the cluster, and the same steps again on the cluster a load
    of the persisted ledger hands out."""
    rng = random.Random(seed)
    cluster = new_cluster(3, rng_seed=seed)
    verdict = round_trip_verify(cluster, generate_payload(seed, 300), 3, 16, mode)
    ledger = Ledger(directory=tmp_path / "ledger")
    commit_restore_point(ledger, cluster, verdict)
    assert_records_match_a_rebuild(cluster, ledger, mode)
    run_steps(cluster, ledger, rng, mode)

    other = new_cluster(2 + seed % 2 * 2)
    upload(other, partition_upload(generate_payload(seed + 1, 100), other.server_count, 16))
    other.epoch = cluster.epoch
    blocks = {block.digest: block for server in other.servers for block in server.blocks.values()}
    load_snapshot(snapshot_cluster(other), blocks, into=cluster)
    assert cluster.server_count == other.server_count
    assert_records_match_a_rebuild(cluster, ledger, mode)
    assert recover(ledger, cluster).action is RecoveryAction.RESTORED
    assert_records_match_a_rebuild(cluster, ledger, mode)

    save_cluster(ledger, cluster)
    ledger = load_ledger(ledger.directory)
    cluster = load_cluster(ledger, seed)
    assert_records_match_a_rebuild(cluster, ledger, mode)
    run_steps(cluster, ledger, rng, mode)


def run_steps(cluster, ledger, rng, mode):
    """Seeded operations, then a fault of each kind and its recovery, then
    an operation sabotaged by each fault but the stale read path, which
    rolls back; the records are checked against a rebuild after each."""
    servers = cluster.server_count

    def some_block(least=1):
        server = rng.choice([s for s in cluster.servers if len(s.blocks) >= least])
        return server.server_index, rng.choice(list(server.blocks))

    kinds = ["append", "update", "delete", "delete-highest-then-append"]
    for kind in kinds * 4 + [rng.choice(kinds) for _ in range(24)]:
        if kind == "append":
            append(cluster, ledger, rng.randrange(servers), random_payload(rng))
        elif kind == "update":
            update(cluster, ledger, *some_block(), random_payload(rng))
        elif kind == "delete":
            delete(cluster, ledger, *some_block(least=2))
        else:
            server_index = some_block(least=2)[0]
            delete(cluster, ledger, server_index, max(cluster.servers[server_index].blocks))
            assert_records_match_a_rebuild(cluster, ledger, mode)
            append(cluster, ledger, server_index, random_payload(rng))
        assert_records_match_a_rebuild(cluster, ledger, mode)

    for kind in FaultKind:
        server_index, block_id = some_block()
        inject_fault(cluster, FaultSpec(kind, server_index, block_id, seed=rng.randrange(1 << 16)))
        assert_records_match_a_rebuild(cluster, ledger, mode)
        assert recover(ledger, cluster).action is RecoveryAction.RESTORED
        assert_records_match_a_rebuild(cluster, ledger, mode)

    for kind in set(FaultKind) - {FaultKind.CSP_STALE_MANIFEST}:
        server_index, block_id = some_block()
        sabotage = FaultSpec(kind, server_index, block_id, seed=rng.randrange(1 << 16))
        with pytest.raises(PostStateCorrupt):
            append(cluster, ledger, rng.randrange(servers), random_payload(rng),
                   post_mutation_hook=lambda c: inject_fault(c, sabotage))
        assert_records_match_a_rebuild(cluster, ledger, mode)


def test_stale_read_path_armed_during_an_update_replays_the_last_point():
    # An identical update while the hook arms the stale read path: it
    # replays the last point, equal to the expected records, so it commits.
    cluster, ledger = make_committed_state(bytes(range(60)), 3, 8)
    append(cluster, ledger, 0, b"abc")
    payload = cluster.servers[1].blocks[0].payload
    arm = lambda c: inject_fault(c, FaultSpec(FaultKind.CSP_STALE_MANIFEST, 0))
    assert update(cluster, ledger, 1, 0, payload, post_mutation_hook=arm).new_epoch == 2
    assert [fault.kind for fault in cluster.faults] == [FaultKind.CSP_STALE_MANIFEST]
    assert cluster.previous_records == ledger.points[1].manifest.records


MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}
STORAGE = {"blocks", "records"}


def unpacked(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from unpacked(element)
    elif isinstance(target, ast.Starred):
        yield from unpacked(target.value)
    else:
        yield target


def is_storage(target, names):
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr in names


def storage_writes(tree, names=STORAGE):
    """Nodes that assign, subscript-assign, delete or mutate an attribute
    named in ``names``: by default, blocks or records."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            targets = [node.func.value]
        else:
            continue
        if any(is_storage(target, names) for element in targets for target in unpacked(element)):
            yield node


def method_of(tree):
    """Map id(node) to "Class.method" for every node inside a method."""
    return {
        id(node): f"{cls.name}.{function.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for function in cls.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }


def binds_empty_dict(node):
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) and not node.value.keys


def test_stored_blocks_are_written_only_by_put_and_drop():
    """Besides put and drop, the only writes are constructor bindings, a new
    server's two dicts starting as empty literals, and the ledger's block
    store (not a server's blocks): a Ledger binds it, and only a commit and
    a load add to it. A server's record lines are bound by its
    constructor and written only by put and drop, beside the records they
    render. Its kept snapshot lines and record tuple are bound by its
    constructor, cleared by put and drop, and filled only by their getters,
    snapshot_lines and record_tuple, so they are made from the dicts as
    they stand. The cluster's joined records are bound by its constructor
    and written only by stored_manifest, which joins the servers' tuples."""
    sites, lines, kept, tuples, joined = [], [], [], [], []
    for path in sorted(Path(cloudledger.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        method, function = method_of(tree), function_of(tree)
        for node in storage_writes(tree):
            where = method.get(id(node)) or function.get(id(node), "module level")
            if where == "ServerState.__init__" and binds_empty_dict(node):
                where += " = {}"
            sites.append((path.name, where))
        lines += [(path.name, method.get(id(node), "module level")) for node in storage_writes(tree, {"record_lines"})]
        kept += [(path.name, method.get(id(node), "module level")) for node in storage_writes(tree, {"_snapshot_lines"})]
        tuples += [(path.name, method.get(id(node), "module level")) for node in storage_writes(tree, {"_record_tuple"})]
        joined += [(path.name, method.get(id(node)) or function.get(id(node), "module level"))
                   for node in storage_writes(tree, {"_joined"})]
    assert sorted(sites) == sorted(
        [("cluster.py", "ServerState.__init__ = {}")] * 2
        + [("cluster.py", "ServerState.put")] * 2
        + [("cluster.py", "ServerState.drop")] * 2
        + [("ledger.py", "Ledger.__init__"), ("ledger.py", "commit_restore_point"), ("ledger.py", "load_ledger")]
    )
    assert sorted(lines) == [("cluster.py", f"ServerState.{name}") for name in ("__init__", "drop", "put")]
    assert sorted(kept) == [("cluster.py", f"ServerState.{name}")
                            for name in ("__init__", "drop", "put", "snapshot_lines")]
    assert sorted(tuples) == [("cluster.py", f"ServerState.{name}")
                              for name in ("__init__", "drop", "put", "record_tuple")]
    assert sorted(joined) == [("cluster.py", "ClusterState.__init__"), ("cluster.py", "stored_manifest")]


def file_writes(tree):
    """Calls that write a file: write_text, write_bytes, os.replace or
    os.rename, and open unless its mode is a literal of only r, b and t or
    its flags are os.O_RDONLY alone."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
        if name in ("write_text", "write_bytes") or (on_os and name in ("replace", "rename")):
            yield node
        elif name == "open":
            # open(path, mode) and os.open(path, flags), but path.open(mode)
            position = 0 if isinstance(func, ast.Attribute) and not on_os else 1
            modes = node.args[position : position + 1] + [k.value for k in node.keywords if k.arg in ("mode", "flags")]
            if any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt") or is_read_only_flag(m))
                   for m in modes):
                yield node


def is_read_only_flag(node):
    return isinstance(node, ast.Attribute) and node.attr == "O_RDONLY" and getattr(node.value, "id", None) == "os"


def function_of(tree):
    """Map id(node) to the name of the innermost function holding it."""
    return {
        id(node): function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }


def test_file_writes_are_recognised():
    sample = ast.parse(
        "open(p, 'w'); open(p, mode='ab'); open(p, m); p.open('x'); os.open(p, flags)\n"
        "p.write_text(t); p.write_bytes(b); os.replace(a, b); os.rename(a, b); os.open(p, os.O_WRONLY)\n"
        "open(p); open(p, 'rb'); p.open(); p.open('r'); t.replace('a', 'b'); p.read_text(); os.open(p, os.O_RDONLY)\n"
    )
    assert len(list(file_writes(sample))) == 10


def test_ledger_write_file_is_the_only_file_writer():
    """A new write site in the package fails here: route it through ledger.write_file."""
    sites = []
    for path in sorted(Path(cloudledger.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        function = function_of(tree)
        sites += [(path.name, function.get(id(node), "module level")) for node in file_writes(tree)]
    assert sites == [("ledger.py", "write_file")] * 2


def test_a_commit_allocates_only_the_changed_record():
    payload = generate_payload(5, 4096 * 16)
    cluster, ledger = make_committed_state(payload, 8, 16)
    assert len(ledger.last().manifest.records) == 4096
    update(cluster, ledger, 3, 100, b"changed")
    before = {id(record) for record in ledger.points[0].manifest.records}
    fresh = [record for record in ledger.points[1].manifest.records if id(record) not in before]
    assert fresh == [BlockRecord(3, 100, 7, fnv1a64(b"changed"))]
