"""CLI behavior: exit codes, reports, persistence layout, determinism."""

import hashlib
import re
from pathlib import Path

import pytest

from cloudledger import (
    Level,
    SnapshotCorrupt,
    build_manifest,
    cli,
    load_ledger,
    partition_upload,
    serialize_manifest,
    snapshot_cluster,
)
from cloudledger.cluster import SNAPSHOT_HEADER
from cloudledger.ledger import _read_record, load_cluster
from cloudledger.rng import generate_payload
from helpers import rechain

MIB = 1024 * 1024


def run_cli(*argv):
    return cli.run(list(argv))


def dir_contents(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def ledger_dir(tmp_path):
    return tmp_path / "ledger"


def seeded_upload(ledger_dir, *extra, gen_bytes=800, servers="3", block_size="32", mode="checksum"):
    return run_cli(
        "--servers", servers,
        "--block-size", block_size,
        "--mode", mode,
        "--seed", "42",
        "--ledger-dir", str(ledger_dir),
        *extra,
        "upload", "--gen-bytes", str(gen_bytes),
    )


def test_upload_commits_epoch_zero(ledger_dir, capsys):
    assert seeded_upload(ledger_dir) == 0
    out = capsys.readouterr().out
    assert "UPLOAD bytes=800 servers=3 block_size=32 mode=checksum seed=42" in out
    assert "VERDICT z=true mode=checksum epoch=0 divergences=0" in out
    assert sorted(p.name for p in ledger_dir.iterdir()) == ["0.snapshot", "cluster.state", "config"]
    assert [point.committed_x for point in load_ledger(ledger_dir).points] == [1600]
    assert (ledger_dir / "cluster.state").read_bytes() == b""  # the live cluster is the committed point


def test_upload_empty_file(ledger_dir, tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    rc = run_cli("--ledger-dir", str(ledger_dir), "upload", str(empty))
    assert rc == 0
    assert [point.committed_x for point in load_ledger(ledger_dir).points] == [0]


def test_upload_into_nonempty_dir_exits_3(ledger_dir):
    assert seeded_upload(ledger_dir) == 0
    assert seeded_upload(ledger_dir) == 3


def test_upload_into_a_dir_holding_a_foreign_file_exits_3(ledger_dir):
    ledger_dir.mkdir()
    (ledger_dir / "config").write_text("servers=3\n")
    (ledger_dir / "notes.txt").write_text("not the ledger's\n")
    assert seeded_upload(ledger_dir) == 3
    assert sorted(p.name for p in ledger_dir.iterdir()) == ["config", "notes.txt"]


def test_upload_golden_one_mib_file(ledger_dir, tmp_path, capsys):
    """Golden run recorded once: 1 MiB seeded file, default 4 servers x 4096B."""
    source = tmp_path / "payload.bin"
    source.write_bytes(generate_payload(42, MIB))
    rc = run_cli("--ledger-dir", str(ledger_dir), "upload", str(source))
    assert rc == 0
    assert [point.committed_x for point in load_ledger(ledger_dir).points] == [2 * MIB]
    manifest_head = load_ledger(ledger_dir).last_snapshot.splitlines()[1]
    assert manifest_head == f"MANIFEST v1 level=CLOUD epoch=0 servers=4 total={MIB}"


def test_upload_requires_some_payload(ledger_dir, capsys):
    rc = run_cli("--ledger-dir", str(ledger_dir), "upload")
    assert rc == 2


def test_verify_clean_and_after_tamper(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 0
    assert run_cli(
        "--ledger-dir", str(ledger_dir),
        "tamper", "--kind", "flip-byte", "--server", "0", "--block", "0", "--fault-seed", "7",
    ) == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "verify", "--report") == 1
    out = capsys.readouterr().out
    assert out.startswith("VERDICT z=false mode=checksum epoch=0 divergences=1\n")
    assert "CHECKSUM_MISMATCH server=0 block=0" in out


def test_tamper_without_a_fault_seed_draws_from_the_config_seed(tmp_path, capsys):
    """The fault stream is seeded with the config seed xor --fault-seed, so
    with the default fault seed two config seeds tamper the same input
    differently, as they do through the library's FaultSpec default."""
    source = tmp_path / "payload.bin"
    source.write_bytes(generate_payload(7, 800))
    notes = []
    for seed in ("1", "2"):
        directory = str(tmp_path / f"seed{seed}")
        assert run_cli("--seed", seed, "--ledger-dir", directory, "upload", str(source)) == 0
        capsys.readouterr()
        assert run_cli("--ledger-dir", directory, "tamper", "--kind", "flip-byte", "--server", "0", "--block", "0") == 0
        notes.append(capsys.readouterr().out.partition(" note=")[2])
    assert notes[0].startswith("byte ") and notes[0] != notes[1], notes


def assert_cluster_state_exits_2(ledger_dir, capsys, data, error):
    """verify and recover both reject a cluster.state holding ``data``, and leave it as it is."""
    state = ledger_dir / "cluster.state"
    state.write_text(data, encoding="utf-8")
    capsys.readouterr()
    for command in ("verify", "recover"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 2
        assert error in capsys.readouterr().err
    assert state.read_text(encoding="utf-8") == data


def test_snapshot_naming_unknown_server_exits_2(ledger_dir, capsys):
    """The live cluster, a snapshot in earlier formats and the last point's
    faults now, names a server the 3-server cluster lacks."""
    seeded_upload(ledger_dir)
    assert_cluster_state_exits_2(ledger_dir, capsys, "HEAD 0\nflip-byte server=3 block=0 seed=42\n",
                                 "cluster.state holds a flip-byte fault that epoch 0 refuses: no server 3")


@pytest.mark.parametrize("data, error", [
    ("HEAD -1\n", "cluster.state starts with 'HEAD -1', which is no HEAD line"),
    ("HEAD 0\nflip-byte server=0 block=-1 seed=42\n",
     "cluster.state holds 'flip-byte server=0 block=-1 seed=42', which is no fault line"),
], ids=["negative-epoch", "negative-block"])
def test_cluster_state_with_a_negative_epoch_or_block_exits_2(ledger_dir, capsys, data, error):
    seeded_upload(ledger_dir)
    assert_cluster_state_exits_2(ledger_dir, capsys, data, error)


@pytest.mark.parametrize(
    "data, error",
    [
        ("HEAD 0\nstale-manifest server=0 block=- seed=42\n",
         "stale-manifest fault that epoch 0 refuses: no previous-epoch manifest to serve as stale"),
        ("HEAD 0\ncrash server=1 block=- seed=42\nflip-byte server=1 block=0 seed=42\n",
         "flip-byte fault that epoch 0 refuses: no block 0 on server 1"),
        ("HEAD 0\ncrash server=01 block=- seed=42\n",
         "holds 'crash server=01 block=- seed=42', which is no fault line"),
        ("HEAD 0\ncrash server=\u0661 block=- seed=42\n",  # Arabic-Indic 1
         "holds 'crash server=\u0661 block=- seed=42', which is no fault line"),
    ],
    ids=["stale-at-epoch-0", "down-server-with-records", "zero-padded-down", "non-ascii-down"],
)
def test_cluster_state_with_a_status_line_snapshots_never_write_exits_2(ledger_dir, capsys, data, error):
    """Only cluster.state holds the crash and stale-manifest faults that set
    a live status, which no snapshot holds, and only ones its point allows:
    no stale read path at epoch 0, which has no epoch before it, and no
    record on a crashed server."""
    seeded_upload(ledger_dir)
    assert_cluster_state_exits_2(ledger_dir, capsys, data, error)


@pytest.mark.parametrize("command", [["upload"], ["append", "--server", "0"]], ids=["upload", "append"])
def test_negative_gen_bytes_exits_2_and_writes_nothing(ledger_dir, capsys, command):
    if command[0] == "append":
        seeded_upload(ledger_dir)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), *command, "--gen-bytes", "-5") == 2
    captured = capsys.readouterr()
    assert "payload size must be >= 0, got -5" in captured.err
    assert captured.out == ""
    assert dir_contents(ledger_dir) == before
    assert ledger_dir.exists() is (command[0] == "append")


def test_an_edited_snapshot_address_exits_2_and_writes_nothing(ledger_dir, tmp_path, capsys):
    """Raising the block id an epoch file's operation line names keeps its
    weights, so X still matches; with the chain recomputed, the append is
    not of the server's next id."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(200)))
    flags = ("--servers", "3", "--block-size", "32", "--ledger-dir", str(ledger_dir))
    assert run_cli(*flags, "upload", str(payload)) == 0
    assert run_cli(*flags, "append", "--server", "1", "--gen-bytes", "8") == 0
    assert run_cli(*flags, "update", "--server", "2", "--block", "0", "--gen-bytes", "8") == 0
    snapshot = ledger_dir / "1.snapshot"
    data, edits = re.subn(b"^APPEND server=1 block=2$", b"APPEND server=1 block=9", snapshot.read_bytes(),
                          flags=re.MULTILINE)
    assert edits == 1
    snapshot.write_bytes(data)
    rechain(ledger_dir, 1)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in (["verify"], ["audit", "--epochs", "0..2"], ["recover"]):
        assert run_cli(*flags, *command) == 2
        assert ("1.snapshot holds 'APPEND server=1 block=9', which epoch 0 refuses: server 1's next block id is 2"
                in capsys.readouterr().err)
    assert dir_contents(ledger_dir) == before


def old_snapshot(version, payload, servers, block_size):
    """Cluster snapshot text as ledger format v1 (payload hex inline) or v2
    (a `<server> <block> <digest>` line per block) wrote it."""
    blocks = partition_upload(payload, servers, block_size)
    lines = ["SNAPSHOT v2"] if version == "v2" else []
    lines.append(serialize_manifest(build_manifest(Level.CLOUD, 0, blocks)).rstrip("\n"))
    for server_index, server_blocks in enumerate(blocks):
        for block_id, b in enumerate(server_blocks):
            name = b.digest if version == "v2" else b.payload.hex() or "-"
            lines.append(f"{server_index} {block_id} {name}")
    return "\n".join(lines + ["END"]) + "\n"


def test_v1_ledger_files_are_rejected_by_name(tmp_path, capsys):
    payload = generate_payload(42, 800)
    for version in ("v1", "v2"):
        old = old_snapshot(version, payload, 3, 32)
        # A v5 ledger whose cluster.state is still in an older format ...
        ledger_dir = tmp_path / version
        seeded_upload(ledger_dir)
        (ledger_dir / "cluster.state").write_text(old)
        capsys.readouterr()
        assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 2
        assert f"ledger format {version}" in capsys.readouterr().err
        # ... and an epoch snapshot in that format, as an older ledger directory holds.
        (ledger_dir / "0.snapshot").write_text(old)
        for command in ("verify", "recover"):
            assert run_cli("--ledger-dir", str(ledger_dir), command) == 2
            err = capsys.readouterr().err
            assert f"ledger format {version}" in err
            assert "payload line" not in err


def three_epochs(ledger_dir):
    """upload, append, update: a 3-epoch ledger."""
    seeded_upload(ledger_dir)
    for op in (("append", "--server", "0", "--gen-bytes", "40"), ("update", "--server", "1", "--block", "0",
               "--gen-bytes", "8")):
        assert run_cli("--ledger-dir", str(ledger_dir), *op) == 0


def old_entry(block):
    """A block entry as v2 to v9 wrote it: ``<sha256 hex> <weight>\n<payload>\n``."""
    return b"%s %d\n%s\n" % (block.digest.encode(), len(block.payload), block.payload)


def test_a_v3_ledger_is_rejected_by_name(tmp_path, capsys):
    """A v3 directory may hold a snapshot its index never listed, which a
    later format would read as committed, a v4 directory keeps its
    operations in a journal file, not in its epoch files, a v5 directory
    keeps its blocks in a pack, not in its epoch files, a v6 directory
    holds a full snapshot, status lines included, in every epoch file, not
    a redo record, a v7 directory holds the upload's blocks and a full
    snapshot in 0.snapshot, not an UPLOAD record, a v8 directory ends each
    epoch file in the hash of its snapshot, not a chain line, a v9
    directory heads each entry with its digest, and a v10 cluster.state
    holds entries, a snapshot and status lines, not the faults since the
    last point, so every file headed SNAPSHOT v3 to v9, every epoch file
    ending in a v8 snapshot line, every v9 entry and every non-empty v10
    cluster.state fails by name, and recover writes nothing. v10 epoch
    files are the current bytes, so a v10 directory whose cluster.state
    is empty loads."""
    current = tmp_path / "current"
    three_epochs(current)
    cut = tmp_path / "cut"  # each epoch's snapshot text: the last one of the ledger cut after that epoch
    cut.mkdir()
    snapshots = []
    for epoch in range(3):
        (cut / f"{epoch}.snapshot").write_bytes((current / f"{epoch}.snapshot").read_bytes())
        snapshots.append(load_ledger(cut).last_snapshot)
    assert run_cli("--ledger-dir", str(current), "tamper", "--kind", "flip-byte", "--server", "0",
                   "--block", "0") == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(current), "history") == 0
    journal = capsys.readouterr().out.encode()
    ledger = load_ledger(current)
    live = load_cluster(ledger, 42)
    tampered = tuple(block for server in live.servers for block in server.blocks.values()
                     if block.digest not in ledger.blocks)
    texts, stored, chain, v9_files = {}, {}, b"", {}
    for point, text in zip(ledger.points, snapshots):
        name = f"{point.epoch}.snapshot"
        op, written, added = _read_record(name, point.epoch, point.record[:-78], stored)
        stored.update(added)
        # The file as v9 wrote it: the entry of a block where it first occurs, a reference after, the chain line.
        new = dict(added)
        body = b"".join([f"{op}\n".encode(), *(old_entry(new.pop(block.digest)) if block.digest in new
                                               else f"{block.digest}\n".encode() for block in written)])
        chain = hashlib.sha256(chain + body).hexdigest().encode()
        v9_files[name] = body + b"CHAIN sha256=%s\n" % chain
        texts[name] = (point.op if point.epoch else None, tuple(added.values()), text, body, written)
    texts["cluster.state"] = (None, tampered, snapshot_cluster(live), None, ())
    blocks = {**ledger.blocks, **{block.digest: block for block in tampered}}
    pack = b"PACK v2\n" + b"".join(map(old_entry, blocks.values()))
    for version in ("v3", "v4", "v5", "v6", "v7", "v8", "v9"):
        # The v10 files as that version wrote them: in v9 each entry headed
        # by its digest; in v8 also each epoch file's operation line and
        # block lines, then the hash of its snapshot; in v7 a full snapshot
        # in 0.snapshot and cluster.state, and after its operation line and
        # entries a digest line and a snapshot line in every other epoch
        # file; before v7 a full snapshot in every epoch file, before v6 the
        # blocks in a pack, and before v5 no operation lines, the operations
        # in a journal.
        ledger_dir = tmp_path / version
        ledger_dir.mkdir()
        (ledger_dir / "config").write_bytes((current / "config").read_bytes())
        if version in ("v3", "v4", "v5", "v7"):
            (ledger_dir / "blocks.pack").write_bytes(pack)
        for name, (op, added, text, body, written) in texts.items():
            assert text.startswith(SNAPSHOT_HEADER + "\n")
            head = f"{op}\n" if op and version in ("v5", "v6", "v7") else ""
            text = f"SNAPSHOT {version}{text[len(SNAPSHOT_HEADER):]}"
            snapshot_line = f"SNAPSHOT sha256={hashlib.sha256(text.encode()).hexdigest()}\n"
            if body is not None and version in ("v8", "v9"):
                (ledger_dir / name).write_bytes(v9_files[name] if version == "v9" else body + snapshot_line.encode())
                continue
            if op and version == "v7":  # no DELETE here: the digest of the block it wrote, then the hash
                text = f"{written[0].digest}\n{snapshot_line}"
            entries = added if version in ("v6", "v7", "v8", "v9") else ()
            (ledger_dir / name).write_bytes(b"".join([head.encode(), *map(old_entry, entries), text.encode()]))
        if version in ("v3", "v4"):
            (ledger_dir / "journal").write_bytes(journal)
        before = dir_contents(ledger_dir)
        for command in ("verify", "history", "recover"):
            assert run_cli("--ledger-dir", str(ledger_dir), command) == 2, (version, command)
            assert f"ledger format {version}" in capsys.readouterr().err, (version, command)
            assert dir_contents(ledger_dir) == before, (version, command)
        assert seeded_upload(ledger_dir) == 3
        assert dir_contents(ledger_dir) == before
    # v10 wrote cluster.state as an entry per live block no epoch file held,
    # the snapshot and status lines; its epoch files are the current bytes.
    # A v9 cluster.state is named by the cluster.state reader too, and
    # history, which does not read it, passes both.
    v10_state = b"".join([*(b"%d\n%s\n" % (len(block.payload), block.payload) for block in tampered),
                          f"SNAPSHOT v10{snapshot_cluster(live)[len(SNAPSHOT_HEADER):]}STALE\n".encode()])
    for version, state in (("v10", v10_state), ("v9", (tmp_path / "v9" / "cluster.state").read_bytes())):
        (current / "cluster.state").write_bytes(state)
        before = dir_contents(current)
        for command in ("verify", "history", "recover"):
            assert run_cli("--ledger-dir", str(current), command) == (0 if command == "history" else 2), command
            assert command == "history" or f"cluster.state is in ledger format {version}" in capsys.readouterr().err
            assert dir_contents(current) == before, command
    (current / "cluster.state").write_bytes(b"")
    capsys.readouterr()
    for command in ("verify", "recover"):
        assert run_cli("--ledger-dir", str(current), command) == 0, command
    assert capsys.readouterr().out == "VERDICT z=true mode=checksum epoch=2 divergences=0\nINTACT epoch=2\n"


@pytest.mark.parametrize("op, epoch, error", [
    (("delete", "--server", "0", "--block", "1"), 1,
     "1.snapshot holds 1 block line(s) for 'DELETE server=0 block=1', which writes 0"),
    (("append", "--server", "1", "--gen-bytes", "20"), 1,
     "1.snapshot holds 2 block line(s) for 'APPEND server=1 block=2', which writes 1"),
    ((), 0, None),
], ids=["delete", "append", "upload"])
def test_an_entry_the_operation_did_not_write_exits_2(ledger_dir, capsys, op, epoch, error):
    """Every entry in an epoch file is a block its operation wrote: a valid
    entry of new bytes inserted after the operation line of a DELETE's
    file or of an APPEND's beside the block it wrote makes verify, history
    and recover exit 2 and write nothing, even with the chain recomputed;
    it never joins the store unused. In the upload's file it moves every
    block after it, an upload that loads once rechained, so only the
    chain line refuses it (error None)."""
    flags = ("--servers", "3", "--block-size", "16", "--ledger-dir", str(ledger_dir))
    assert run_cli(*flags, "upload", "--gen-bytes", "100") == 0
    if op:
        assert run_cli(*flags, *op) == 0
    path = ledger_dir / f"{epoch}.snapshot"
    line, lf, rest = path.read_bytes().partition(b"\n")
    path.write_bytes(line + lf + b"11\nhello extra\n" + rest)
    if error is None:
        error = f"{epoch}.snapshot fails its chain line"
    else:
        rechain(ledger_dir, epoch)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in ("verify", "history", "recover"):
        assert run_cli(*flags, command) == 2, command
        assert error in capsys.readouterr().err, command
        assert dir_contents(ledger_dir) == before, command


@pytest.mark.parametrize("edit, stray", [
    (lambda d: (d / "1.snapshot").unlink(), "2.snapshot"),
    (lambda d: (d / "5.snapshot").write_bytes((d / "2.snapshot").read_bytes()), "5.snapshot"),
    (lambda d: (d / "1.snapshot").rename(d / "01.snapshot"), "01.snapshot"),
], ids=["gap", "extra", "leading-zero"])
def test_a_snapshot_set_other_than_one_per_epoch_from_0_exits_2(ledger_dir, capsys, edit, stray):
    """The committed epochs are the files 0.snapshot to (E-1).snapshot, so
    any other set of snapshot names fails every read command, and recover
    writes nothing."""
    three_epochs(ledger_dir)
    edit(ledger_dir)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in ("verify", "report", "audit --epochs 0", "history", "recover"):
        assert run_cli("--ledger-dir", str(ledger_dir), *command.split()) == 2, command
        assert f"{stray} is in the ledger, but the snapshots of" in capsys.readouterr().err, command
    assert dir_contents(ledger_dir) == before


def test_commit_while_stale_read_path_is_armed_keeps_the_ledger_loadable(ledger_dir, tmp_path, capsys):
    # An update that rewrites a block with its own bytes commits even while
    # the read path replays the previous epoch. The armed path is live
    # status: cluster.state lists its fault, at epoch 2 once the update
    # commits, and epoch 2's file does not.
    seeded_upload(ledger_dir, gen_bytes=200)
    same_bytes = tmp_path / "block0.bin"
    same_bytes.write_bytes(generate_payload(42, 200)[:32])
    update = ("--ledger-dir", str(ledger_dir), "update", "--server", "0", "--block", "0", str(same_bytes))
    assert run_cli(*update) == 0
    assert run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "stale-manifest", "--server", "0") == 0
    assert run_cli(*update) == 0
    assert b"stale" not in (ledger_dir / "2.snapshot").read_bytes()
    assert (ledger_dir / "cluster.state").read_bytes() == b"HEAD 2\nstale-manifest server=0 block=- seed=42\n"
    for command in ("verify", "recover", "report"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 0, capsys.readouterr().err
    assert len(load_ledger(ledger_dir).points) == 3


def test_commit_refuses_a_corruption_the_stale_read_path_hides(ledger_dir, tmp_path, capsys):
    # The replayed previous epoch hides a flipped byte on server 1 from the
    # verdict, but not from the snapshot: committing it would make the
    # corruption history that recovery restores and loading accepts.
    seeded_upload(ledger_dir, gen_bytes=200)
    same_bytes = tmp_path / "block0.bin"
    same_bytes.write_bytes(generate_payload(42, 200)[:32])
    update = ("--ledger-dir", str(ledger_dir), "update", "--server", "0", "--block", "0", str(same_bytes))
    assert run_cli(*update) == 0
    tamper = ("--ledger-dir", str(ledger_dir), "tamper", "--kind")
    assert run_cli(*tamper, "flip-byte", "--server", "1", "--block", "0") == 0
    assert run_cli(*tamper, "stale-manifest", "--server", "0") == 0
    capsys.readouterr()
    assert run_cli(*update) == 1
    assert "differ from the verified read path" in capsys.readouterr().err
    assert not (ledger_dir / "2.snapshot").exists()
    assert len(load_ledger(ledger_dir).points) == 2


def test_recover_restores_while_a_stale_read_path_is_armed(ledger_dir, tmp_path, capsys):
    # After an identical update the replayed previous epoch equals the
    # commit, so only the armed read path tells recovery the state is not intact.
    seeded_upload(ledger_dir, gen_bytes=200)
    same_bytes = tmp_path / "block0.bin"
    same_bytes.write_bytes(generate_payload(42, 200)[:32])
    d = str(ledger_dir)
    assert run_cli("--ledger-dir", d, "update", "--server", "0", "--block", "0", str(same_bytes)) == 0
    assert run_cli("--ledger-dir", d, "tamper", "--kind", "stale-manifest", "--server", "0") == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", d, "recover") == 0
    assert capsys.readouterr().out == "RESTORED epoch=1\n"
    assert (ledger_dir / "cluster.state").read_bytes() == b""
    assert run_cli("--ledger-dir", d, "append", "--server", "1", "--gen-bytes", "10") == 0
    assert run_cli("--ledger-dir", d, "recover") == 0
    assert capsys.readouterr().out.endswith("INTACT epoch=2\n")


def test_a_down_server_is_live_status_that_only_cluster_state_holds(ledger_dir, tmp_path, capsys):
    """With 4 servers and a 30-byte upload in 16-byte blocks, server 3
    holds nothing, so after it crashes an append still verifies and
    commits. The crash is live status: epoch 1's file holds none, and
    cluster.state lists it, at epoch 1 once the append commits, until
    recover revives the server, and is empty after that. Every command
    prints what it printed while a restore point recorded a DOWN line."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(30)))
    flags = ("--servers", "4", "--block-size", "16", "--ledger-dir", str(ledger_dir))
    state = ledger_dir / "cluster.state"
    expected = [
        (("upload", str(payload)), 0, "UPLOAD bytes=30 servers=4 block_size=16 mode=checksum seed=42"),
        (("crash", "--server", "3"), 0, "TAMPER crash server=3 block=- note=server 3 crashed, 0 bytes erased"),
        (("append", "--server", "0", "--gen-bytes", "5"), 0,
         "1 APPEND server=0 block=1 delta=+5 s_after=35 z_pre=true z_post=true"),
        (("verify", "--report"), 0, "VERDICT z=true mode=checksum epoch=1 divergences=0"),
        (("report",), 0, "REPORT epoch=1 servers=4 block_size=16 mode=checksum seed=42"),
        (("audit", "--epochs", "0..1"), 0, "TPA VERDICT z=true mode=checksum epoch=0 divergences=0"),
        (("history",), 0, "1 APPEND server=0 block=1 delta=+5 s_after=35 z_pre=true z_post=true"),
    ]
    capsys.readouterr()
    for argv, code, first in expected:
        assert run_cli(*flags, *argv) == code, argv
        assert capsys.readouterr().out.splitlines()[0] == first, argv
    assert not any(b"crash" in (ledger_dir / f"{epoch}.snapshot").read_bytes() for epoch in (0, 1))
    assert state.read_bytes() == b"HEAD 1\ncrash server=3 block=- seed=42\n"
    for first in ("RESTORED epoch=1", "INTACT epoch=1"):
        assert run_cli(*flags, "recover") == 0
        assert capsys.readouterr().out == first + "\n"
        assert state.read_bytes() == b""
    assert run_cli(*flags, "append", "--server", "3", "--gen-bytes", "7") == 0
    assert state.read_bytes() == b""


def test_tamper_then_recover_then_verify(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "crash", "--server", "2")
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "recover") == 0
    assert capsys.readouterr().out == "RESTORED epoch=0\n"
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 0
    assert run_cli("--ledger-dir", str(ledger_dir), "recover") == 0
    assert capsys.readouterr().out.endswith("INTACT epoch=0\n")


def test_weight_only_blind_spot_via_cli(ledger_dir, capsys):
    seeded_upload(ledger_dir, mode="weight-only")
    run_cli(
        "--ledger-dir", str(ledger_dir),
        "tamper", "--kind", "same-weight", "--server", "1", "--block", "0",
    )
    # configured weight-only mode misses it ...
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 0
    # ... a flag override to checksum mode catches it (flags beat the config file)
    assert run_cli("--ledger-dir", str(ledger_dir), "--mode", "checksum", "verify") == 1
    # ... and truncation is caught even in weight-only mode
    run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "truncate", "--server", "1", "--block", "0")
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 1


def test_op_flow_and_journal(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "40") == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("1 APPEND server=0")
    assert "delta=+40 s_after=840" in line
    assert run_cli("--ledger-dir", str(ledger_dir), "update", "--server", "0", "--block", "0", "--gen-bytes", "8") == 0
    assert run_cli("--ledger-dir", str(ledger_dir), "delete", "--server", "0", "--block", "1") == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "history") == 0
    journal = capsys.readouterr().out.splitlines()
    assert len(journal) == 3
    assert journal[0].startswith("1 APPEND")
    assert journal[1].startswith("2 UPDATE")
    assert journal[2].startswith("3 DELETE")
    assert len(load_ledger(ledger_dir).points) == 4


def test_op_after_tamper_exits_1_with_report(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "drop-block", "--server", "1", "--block", "1")
    capsys.readouterr()
    rc = run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "4")
    assert rc == 1
    out = capsys.readouterr().out
    assert "VERDICT z=false" in out
    assert "MISSING server=1 block=1" in out


def test_missing_targets_exit_4(ledger_dir):
    seeded_upload(ledger_dir)
    assert run_cli("--ledger-dir", str(ledger_dir), "delete", "--server", "0", "--block", "99") == 4
    assert run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "flip-byte", "--server", "9", "--block", "0") == 4
    assert run_cli("--ledger-dir", str(ledger_dir), "audit", "--epochs", "5..9") == 4


def test_stale_epoch_exits_5(ledger_dir):
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "4")
    rc = run_cli(
        "--ledger-dir", str(ledger_dir),
        "append", "--server", "0", "--gen-bytes", "4", "--expect-epoch", "0",
    )
    assert rc == 5


def test_recover_with_no_ledger_exits_6(ledger_dir):
    assert run_cli("--ledger-dir", str(ledger_dir), "recover") == 6


def test_invalid_configuration_exits_2(ledger_dir):
    assert run_cli("--servers", "0", "--ledger-dir", str(ledger_dir), "upload", "--gen-bytes", "4") == 2
    assert run_cli("--block-size", "0", "--ledger-dir", str(ledger_dir), "upload", "--gen-bytes", "4") == 2


def test_audit_cli_output(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "1", "--gen-bytes", "16")
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "audit", "--epochs", "0..1") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "TPA VERDICT z=true mode=checksum epoch=0 divergences=0",
        "TPA VERDICT z=true mode=checksum epoch=1 divergences=0",
    ]
    run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "flip-byte", "--server", "0", "--block", "0")
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "audit", "--epochs", "0") == 1
    assert "TPA CHECKSUM_MISMATCH" in capsys.readouterr().out


def test_report_summary(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "100")
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "report") == 0
    out = capsys.readouterr().out
    assert out == (
        "REPORT epoch=1 servers=3 block_size=32 mode=checksum seed=42\n"
        "live_total=900\n"
        "points=2\n"
        "0 1 1600\n"
        "1 2 1800\n"
        "END\n"
    )


def test_report_prints_each_point_as_epoch_tick_and_x(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    for argv in (("append", "--server", "0", "--gen-bytes", "100"), ("update", "--server", "1", "--block", "2",
                 "--gen-bytes", "7"), ("delete", "--server", "2", "--block", "0")):
        assert run_cli("--ledger-dir", str(ledger_dir), *argv) == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "report") == 0
    out = capsys.readouterr().out
    points = load_ledger(ledger_dir).points
    lines = [f"{p.epoch} {p.epoch + 1} {2 * p.manifest.total_weight}\n" for p in points]
    assert out.split("points=4\n")[1] == "".join(lines) + "END\n"


def test_ledger_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CLOUDLEDGER_DIR", str(target))
    assert run_cli("--servers", "2", "--block-size", "16", "upload", "--gen-bytes", "64") == 0
    assert (target / "0.snapshot").exists()


def test_config_file_flag(ledger_dir, tmp_path, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text("servers=5\nblock_size=10\nseed=7\nmode=checksum\n")
    assert run_cli("--ledger-dir", str(ledger_dir), "--config", str(config), "upload", "--gen-bytes", "50") == 0
    out = capsys.readouterr().out
    assert "UPLOAD bytes=50 servers=5 block_size=10 mode=checksum seed=7" in out
    # An explicit --config must exist; only the ledger directory's own config is optional.
    missing, elsewhere = tmp_path / "no-such.cfg", tmp_path / "elsewhere"
    assert run_cli("--ledger-dir", str(elsewhere), "--config", str(missing), "upload", "--gen-bytes", "50") == 2
    assert str(missing) in capsys.readouterr().err
    assert not elsewhere.exists()
    # The upload made the directory, parents too, to lock it, and removes them all again.
    nested = elsewhere / "a" / "b"
    assert run_cli("--ledger-dir", str(nested), "--config", str(missing), "upload", "--gen-bytes", "50") == 2
    assert str(missing) in capsys.readouterr().err
    assert not elsewhere.exists()
    # A key the CLI does not know is an error, not a silently ignored line.
    misspelled = tmp_path / "misspelled.cfg"
    misspelled.write_text("server=3\n")
    assert run_cli("--ledger-dir", str(elsewhere), "--config", str(misspelled), "upload", "--gen-bytes", "300") == 2
    err = capsys.readouterr().err
    assert "'server'" in err and str(misspelled) in err
    assert not elsewhere.exists()


@pytest.mark.parametrize("text", [
    b"servers=5\r\nblock_size=10\r\n",
    b"servers=5\x0cblock_size=10\n",
    b"servers=5\nblock_size=10",
], ids=["crlf", "form-feed", "no-final-lf"])
def test_a_config_whose_lines_do_not_end_in_lf_alone_exits_2(ledger_dir, tmp_path, capsys, text):
    """Both the ledger directory's config and --config must end every line in LF, and in nothing else."""
    config = tmp_path / "sim.cfg"
    config.write_bytes(text)
    elsewhere = tmp_path / "elsewhere"
    assert run_cli("--ledger-dir", str(elsewhere), "--config", str(config), "upload", "--gen-bytes", "50") == 2
    assert f"config file {config} " in capsys.readouterr().err
    assert not elsewhere.exists()
    assert seeded_upload(ledger_dir) == 0
    (ledger_dir / "config").write_bytes(text)
    capsys.readouterr()
    for command in ("verify", "report"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 2, command
        assert f"config file {ledger_dir / 'config'} " in capsys.readouterr().err


@pytest.mark.parametrize("epoch, written, edit, error", [
    (1, 1, lambda data: data.replace(b"\n", b"\r\n", 1), "\\r', which is no operation line"),
    (1, 1, lambda data: data.replace(b"\n", b"\x0c\n", 1), "\\x0c', which is no operation line"),
    (3, 3, lambda data: data[:-1], "' and no LF, where a block line or the chain line belongs"),
    (3, 4, lambda data: data, "4.snapshot holds 'DELETE server=2 block=1', which epoch 3 refuses: server 2 holds no"),
], ids=["crlf", "form-feed", "no-final-lf", "past-the-last-epoch"])
def test_history_of_a_journal_the_ledger_does_not_commit_exits_2(ledger_dir, capsys, epoch, written, edit, error):
    """history renders each operation's line from its epoch file, read as
    written, every line ending in LF alone, and refuses an epoch file past
    the last epoch the ledger commits, writing nothing, even with every
    chain line from the edited file on recomputed."""
    seeded_upload(ledger_dir)
    for op in (("append", "--server", "0", "--gen-bytes", "40"), ("update", "--server", "1", "--block", "0",
               "--gen-bytes", "8"), ("delete", "--server", "2", "--block", "1")):
        assert run_cli("--ledger-dir", str(ledger_dir), *op) == 0
    (ledger_dir / f"{written}.snapshot").write_bytes(edit((ledger_dir / f"{epoch}.snapshot").read_bytes()))
    rechain(ledger_dir, written)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "history") == 2
    out, err = capsys.readouterr()
    assert out == "" and error in err, err
    assert dir_contents(ledger_dir) == before


@pytest.mark.parametrize("epoch, edit, error", [
    (1, lambda data, op: data.replace(op, b"APPEND server=0\n", 1), "starts with 'APPEND server=0', which is no"),
    (1, lambda data, op: data.replace(op, b"APPEND again\n", 1), "starts with 'APPEND again', which is no"),
    (1, lambda data, op: data.replace(op, b"junk line\n", 1), "starts with 'junk line', which is no operation"),
    (0, lambda data, op: b"UPDATE nothing\n" + data, "0.snapshot starts with 'UPDATE nothing', which is no operation"),
    (1, lambda data, op: data.replace(op, op + op, 1), "1.snapshot at byte 24 holds 'APPEND server=0 block=9', where"),
    (0, lambda data, op: op + data, "0.snapshot holds 'APPEND server=0 block=9', but the upload commits epoch 0"),
    (1, lambda data, op: data.replace(op, b"APPEND server=" + b"1" * 5000 + b" block=5\n", 1),
     "1.snapshot starts with 'APPEND server=111111"),
    (0, lambda data, op: b"UPLOAD servers=" + b"1" * 5000 + data[data.index(b"\n"):],
     "0.snapshot starts with 'UPLOAD servers=111111"),
], ids=["short-line", "again", "junk", "epoch-0-junk", "epoch-1-twice", "epoch-0", "over-long-server",
        "over-long-servers"])
def test_history_and_recover_refuse_a_line_no_operation_journals(ledger_dir, capsys, epoch, edit, error):
    """Every operation's epoch file starts with the one line it journals,
    and the upload's 0.snapshot with its UPLOAD line: on a 2-epoch ledger, an
    epoch file with any other first line, or with the operation line twice,
    makes load_ledger raise SnapshotCorrupt, and history, verify and recover
    exit 2 and write nothing, even with every chain line from it on
    recomputed. An operation line's decimals have at most 20 digits, as a
    fault line's do, so int() never meets its 4,300-digit limit."""
    seeded_upload(ledger_dir)
    assert run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "40") == 0
    op = (ledger_dir / "1.snapshot").read_bytes().split(b"\n", 1)[0] + b"\n"
    path = ledger_dir / f"{epoch}.snapshot"
    path.write_bytes(edit(path.read_bytes(), op))
    rechain(ledger_dir, epoch)
    with pytest.raises(SnapshotCorrupt, match=re.escape(error)):
        load_ledger(ledger_dir)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in ("history", "verify", "recover"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and error in err, (command, err)
        assert dir_contents(ledger_dir) == before


def test_an_edited_config_mode_passes_a_same_weight_tamper(ledger_dir, capsys):
    """Open blind spot: config is outside the chain. After its mode is
    edited from checksum to weight-only, a same-weight tamper passes verify
    and audit with exit 0, while recover, which compares checksums
    whatever the mode, still restores. A head or key that covers the
    settings refuses the edit, which flips this test."""
    seeded_upload(ledger_dir)
    config = ledger_dir / "config"
    config.write_bytes(config.read_bytes().replace(b"mode=checksum\n", b"mode=weight-only\n"))
    assert run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "same-weight", "--server", "1",
                   "--block", "0") == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 0
    assert run_cli("--ledger-dir", str(ledger_dir), "audit", "--epochs", "0") == 0
    assert capsys.readouterr().out == ("VERDICT z=true mode=weight-only epoch=0 divergences=0\n"
                                       "TPA VERDICT z=true mode=weight-only epoch=0 divergences=0\n")
    assert run_cli("--ledger-dir", str(ledger_dir), "recover") == 0
    assert capsys.readouterr().out == "RESTORED epoch=0\n"


def test_identical_command_sequences_produce_identical_directories(tmp_path):
    def scenario(root: Path):
        d = str(root)
        seeded_upload(root)
        run_cli("--ledger-dir", d, "append", "--server", "0", "--gen-bytes", "64")
        run_cli("--ledger-dir", d, "update", "--server", "1", "--block", "0", "--gen-bytes", "8")
        run_cli("--ledger-dir", d, "delete", "--server", "2", "--block", "1")
        run_cli("--ledger-dir", d, "tamper", "--kind", "flip-byte", "--server", "0", "--block", "0")
        run_cli("--ledger-dir", d, "verify", "--report")
        run_cli("--ledger-dir", d, "recover")
        run_cli("--ledger-dir", d, "verify")

    first, second = tmp_path / "run1", tmp_path / "run2"
    scenario(first)
    scenario(second)
    assert dir_contents(first) == dir_contents(second)
