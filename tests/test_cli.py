"""CLI behavior: exit codes, reports, persistence layout, determinism."""

import hashlib
import re
import shutil
from pathlib import Path

import pytest

from cloudledger import (
    Level,
    SnapshotCorrupt,
    build_manifest,
    cli,
    errors,
    load_ledger,
    partition_upload,
    serialize_manifest,
    snapshot_cluster,
)
from cloudledger.cluster import SNAPSHOT_HEADER
from cloudledger.ledger import _read_record, load_cluster
from cloudledger.rng import generate_payload
from helpers import RETIRED, make_committed_state, rechain

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
    assert sorted(p.name for p in ledger_dir.iterdir()) == ["0.snapshot", "cluster.state"]
    assert (ledger_dir / "0.snapshot").read_bytes().startswith(b"UPLOAD v12 servers=3 block_size=32 mode=checksum"
                                                               b" seed=42\n")
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
    lines = load_ledger(ledger_dir).last_snapshot.splitlines()
    # One section per server, each headed by its manifest's line: 64 blocks of 4096 B, a quarter of the total.
    assert lines[1] == f"MANIFEST v1 level=CLOUD epoch=0 servers=4 total={MIB // 4}"
    assert [line for line in lines if line.startswith("MANIFEST ")] == [lines[1]] * 4


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
    """The fault stream is seeded with the upload's seed, which its line
    records, a negative one too, xor --fault-seed, so with the default
    fault seed two upload seeds tamper the same input differently, as they
    do through the library's FaultSpec default."""
    source = tmp_path / "payload.bin"
    source.write_bytes(generate_payload(7, 800))
    notes = []
    for seed in ("1", "2", "-5"):
        directory = str(tmp_path / f"seed{seed}")
        assert run_cli("--seed", seed, "--ledger-dir", directory, "upload", str(source)) == 0
        capsys.readouterr()
        assert run_cli("--ledger-dir", directory, "tamper", "--kind", "flip-byte", "--server", "0", "--block", "0") == 0
        notes.append(capsys.readouterr().out.partition(" note=")[2])
        assert run_cli("--ledger-dir", directory, "report") == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f" seed={seed}")
    assert notes[0].startswith("byte ") and len(set(notes)) == 3, notes


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


def as_v11(ledger_dir):
    """Rewrite a ledger directory as format v11 wrote it: the upload's line
    named the server count alone, every chain line from it on covering
    that, and the settings were in a config file of key=value lines."""
    path = ledger_dir / "0.snapshot"
    line, lf, rest = path.read_bytes().partition(b"\n")
    settings = [field.split(b"=") for field in line.split(b" ")[2:]]
    path.write_bytes(b"UPLOAD servers=%s\n%s" % (settings[0][1], rest))
    rechain(ledger_dir)
    (ledger_dir / "config").write_bytes(b"".join(b"%s=%s\n" % (key, value) for key, value in settings))


def assert_retired(ledger_dir, capsys):
    """Every command that loads the ledger exits 2 naming the retired
    formats, and writes nothing, and an upload into it exits 3."""
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in ("verify", "history", "recover", "report"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 2, (ledger_dir.name, command)
        assert RETIRED in capsys.readouterr().err, (ledger_dir.name, command)
        assert dir_contents(ledger_dir) == before, (ledger_dir.name, command)
    assert seeded_upload(ledger_dir) == 3
    assert dir_contents(ledger_dir) == before


def test_v1_ledger_files_are_rejected_by_name(tmp_path, capsys):
    """A 0.snapshot without the format marker is of a retired format, v11 or
    earlier: v1 and v2 snapshot text and v11's UPLOAD line alike. A
    cluster.state in an older format beside current epoch files has no
    HEAD line."""
    payload = generate_payload(42, 800)
    for version in ("v1", "v2", "v11"):
        ledger_dir = tmp_path / version
        seeded_upload(ledger_dir)
        if version == "v11":
            as_v11(ledger_dir)
        else:
            old = old_snapshot(version, payload, 3, 32)
            (ledger_dir / "cluster.state").write_text(old)
            capsys.readouterr()
            assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 2
            assert "which is no HEAD line" in capsys.readouterr().err
            (ledger_dir / "0.snapshot").write_text(old)  # as an older ledger directory holds it
        assert_retired(ledger_dir, capsys)


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
    last point, and a v11 directory keeps its settings in a config file,
    not in the upload's line. None of their 0.snapshot files starts with
    the format marker, ``UPLOAD v12 ``, so each directory fails naming the
    retired formats, v11 or earlier, and recover writes nothing. A v9 or
    v10 cluster.state beside current epoch files has no HEAD line."""
    current = tmp_path / "current"
    three_epochs(current)
    upload = "UPLOAD servers=3"  # the upload's line as v8 to v11 wrote it
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
        op = op if point.epoch else upload
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
    v11 = tmp_path / "v11"
    shutil.copytree(current, v11)
    as_v11(v11)
    assert_retired(v11, capsys)
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
        (ledger_dir / "config").write_bytes((v11 / "config").read_bytes())
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
        assert_retired(ledger_dir, capsys)
    # v10 wrote cluster.state as an entry per live block no epoch file held,
    # the snapshot and status lines. Beside current epoch files it, and a v9
    # cluster.state, has no HEAD line, and history, which does not read it,
    # passes both.
    v10_state = b"".join([*(b"%d\n%s\n" % (len(block.payload), block.payload) for block in tampered),
                          f"SNAPSHOT v10{snapshot_cluster(live)[len(SNAPSHOT_HEADER):]}STALE\n".encode()])
    for version, state in (("v10", v10_state), ("v9", (tmp_path / "v9" / "cluster.state").read_bytes())):
        (current / "cluster.state").write_bytes(state)
        before = dir_contents(current)
        for command in ("verify", "history", "recover"):
            assert run_cli("--ledger-dir", str(current), command) == (0 if command == "history" else 2), command
            assert command == "history" or "which is no HEAD line" in capsys.readouterr().err
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
    # ... a flag override to checksum mode catches it (flags beat the settings the upload recorded)
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


def test_invalid_configuration_exits_2(ledger_dir, capsys):
    """A setting the upload cannot use, or its line cannot hold (a seed of
    21 digits), exits 2 before the upload writes, which removes the
    directory it made."""
    for flag, value in (("--servers", "0"), ("--block-size", "0"), ("--seed", "1" * 21), ("--seed", "-" + "1" * 21)):
        assert run_cli(flag, value, "--ledger-dir", str(ledger_dir), "upload", "--gen-bytes", "4") == 2, value
        assert not ledger_dir.exists(), value
    assert "the upload's line cannot hold" in capsys.readouterr().err


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


@pytest.mark.parametrize("global_mode, own_mode, code", [
    ([], [], 1),
    (["--mode", "weight-only"], [], 0),
    ([], ["--mode", "weight-only"], 0),
    (["--mode", "weight-only"], ["--mode", "checksum"], 1),
    (["--mode", "checksum"], ["--mode", "weight-only"], 0),
], ids=["recorded", "global", "own", "own-over-global-checksum", "own-over-global-weight-only"])
def test_audit_takes_the_global_mode_unless_it_names_its_own(ledger_dir, capsys, global_mode, own_mode, code):
    """The global --mode overrides the mode the upload recorded (checksum)
    for audit as for every command, and audit's own --mode, after the
    subcommand, overrides both: only weight-only misses a same-weight
    tamper."""
    seeded_upload(ledger_dir)
    run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "same-weight", "--server", "1", "--block", "0")
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), *global_mode, "audit", "--epochs", "0", *own_mode) == code
    mode = (own_mode or global_mode or ["--mode", "checksum"])[1]
    assert capsys.readouterr().out.startswith(f"TPA VERDICT z={'false' if code else 'true'} mode={mode} epoch=0 ")


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


def test_report_names_no_block_size_the_upload_line_does_not_record(ledger_dir, capsys):
    """A ledger committed through the library records no block size, and no
    command after the upload uses one, so report prints none unless a flag
    names one."""
    make_committed_state(generate_payload(1, 100), 2, 16, directory=ledger_dir)
    (ledger_dir / "cluster.state").write_bytes(b"")
    for flags, block_size in (((), "-"), (("--block-size", "16"), "16")):
        capsys.readouterr()
        assert run_cli("--ledger-dir", str(ledger_dir), *flags, "report") == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == f"REPORT epoch=0 servers=2 block_size={block_size} mode=checksum seed=42"


def test_ledger_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CLOUDLEDGER_DIR", str(target))
    assert run_cli("--servers", "2", "--block-size", "16", "upload", "--gen-bytes", "64") == 0
    assert (target / "0.snapshot").exists()


def test_a_failed_upload_removes_the_directories_it_made(tmp_path, capsys):
    """The upload makes the ledger directory, parents too, to lock it, and
    removes them all again when it fails before writing into it."""
    missing, elsewhere = tmp_path / "no-such-file", tmp_path / "elsewhere"
    assert run_cli("--ledger-dir", str(elsewhere / "a" / "b"), "upload", str(missing)) == 2
    assert str(missing) in capsys.readouterr().err
    assert not elsewhere.exists()


PAYLOAD_COMMANDS = {
    "upload": ("upload",),
    "append": ("append", "--server", "0"),
    "update": ("update", "--server", "1", "--block", "0"),
}


@pytest.mark.parametrize("payload, error", [
    ((), "one of the arguments input --gen-bytes is required"),
    (("--gen-bytes", "8", "payload.bin"), "argument input: not allowed with argument --gen-bytes"),
], ids=["none", "both"])
@pytest.mark.parametrize("command", PAYLOAD_COMMANDS.values(), ids=PAYLOAD_COMMANDS)
def test_a_payload_command_takes_an_input_file_or_gen_bytes_not_both(tmp_path, capsys, command, payload, error):
    """argparse refuses a command given no payload or two before the
    command locks or loads: an upload makes no directory, and an operation
    leaves every file of the ledger as it was."""
    if command[0] == "upload":
        target = tmp_path / "new" / "a" / "b"
    else:
        target = tmp_path / "ledger"
        seeded_upload(target)
        before = dir_contents(target)
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(target), *command, *payload) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {error}\n" in captured.err
    if command[0] == "upload":
        assert not (tmp_path / "new").exists()
    else:
        assert dir_contents(target) == before


def test_a_usage_error_exits_2_before_the_ledger_is_read(ledger_dir, tmp_path, capsys):
    """A command without its payload exits 2 where its ledger would exit 3
    (an upload into a non-empty directory) or 6 (an append with no ledger),
    the --config flag is gone, and a malformed --epochs or a negative
    --gen-bytes exits 2 whether or not a ledger exists."""
    seeded_upload(ledger_dir)
    before = dir_contents(ledger_dir)
    assert run_cli("--ledger-dir", str(ledger_dir), "upload") == 2
    assert dir_contents(ledger_dir) == before
    assert run_cli("--ledger-dir", str(tmp_path / "none"), "append", "--server", "0") == 2
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "--config", "sim.cfg", "verify") == 2
    assert capsys.readouterr().out == ""
    for directory in (ledger_dir, tmp_path / "none"):
        for argv, error in [
            (("audit", "--epochs", "x"), "argument --epochs: invalid epoch range: 'x'"),
            (("audit", "--epochs", "0..x"), "argument --epochs: invalid epoch range: '0..x'"),
            (("append", "--server", "0", "--gen-bytes", "-5"), "argument --gen-bytes: payload size must be >= 0, got -5"),
            (("append", "--server", "0", "--gen-bytes", "x"), "argument --gen-bytes: invalid int value: 'x'"),
        ]:
            assert run_cli("--ledger-dir", str(directory), *argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and f"error: {error}\n" in captured.err, argv
    assert dir_contents(ledger_dir) == before and not (tmp_path / "none").exists()


def test_each_exit_code_from_2_on_has_one_error_class(ledger_dir, monkeypatch):
    """Every error class the package defines exits with one code: the
    table's, one class for each of 2 to 6, or 1 for the rest."""
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.CloudLedgerError)]
    table = dict(cli._EXIT_BY_ERROR)
    assert sorted(table.values()) == [2, 3, 4, 5, 6]
    assert set(table) <= set(classes)
    seeded_upload(ledger_dir)
    for cls in classes:
        def fail(args, cls=cls):
            raise cls.__new__(cls, "boom")
        monkeypatch.setattr(cli, "cmd_report", fail)
        assert run_cli("--ledger-dir", str(ledger_dir), "report") == table.get(cls, 1), cls


@pytest.mark.parametrize("epoch, written, edit, error", [
    (1, 1, lambda data: data.replace(b"\n", b"\r\n", 1), "\\r', which is no operation line"),
    (1, 1, lambda data: data.replace(b"\n", b"\x0c\n", 1), "\\x0c', which is no operation line"),
    (3, 3, lambda data: data[:-1], "' and no LF, where a block line or the chain line belongs"),
    (3, 4, lambda data: data, "4.snapshot holds 'DELETE server=2 block=1', which epoch 3 refuses: no block 1 on"
                              " server 2"),
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
    (0, lambda data, op: b"UPDATE nothing\n" + data, RETIRED),
    (1, lambda data, op: data.replace(op, op + op, 1), "1.snapshot at byte 24 holds 'APPEND server=0 block=9', where"),
    (0, lambda data, op: op + data, RETIRED),
    (1, lambda data, op: data.replace(op, b"APPEND server=" + b"1" * 5000 + b" block=5\n", 1),
     "1.snapshot starts with 'APPEND server=111111"),
    (0, lambda data, op: b"UPLOAD v12 servers=" + b"1" * 5000 + data[data.index(b" block_size="):],
     "0.snapshot starts with 'UPLOAD v12 servers=111111"),
], ids=["short-line", "again", "junk", "epoch-0-junk", "epoch-1-twice", "epoch-0", "over-long-server",
        "over-long-servers"])
def test_history_and_recover_refuse_a_line_no_operation_journals(ledger_dir, capsys, epoch, edit, error):
    """Every operation's epoch file starts with the one line it journals,
    and the upload's 0.snapshot with its UPLOAD line: on a 2-epoch ledger, an
    epoch file with any other first line, or with the operation line twice,
    makes load_ledger raise SnapshotCorrupt, and history, verify and recover
    exit 2 and write nothing, even with every chain line from it on
    recomputed. A 0.snapshot that does not start with the format marker
    fails as a retired format. An operation line's decimals have at most 20 digits, as a
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


@pytest.mark.parametrize("setting, edited", [
    (b" servers=3 ", b" servers=9 "),
    (b" block_size=32 ", b" block_size=99 "),
    (b" mode=checksum ", b" mode=weight-only "),
    (b" seed=42", b" seed=43"),
], ids=["servers", "block_size", "mode", "seed"])
def test_an_edited_upload_setting_fails_its_chain_line(ledger_dir, capsys, setting, edited):
    """The settings are in the upload's line, which the chain covers. An
    edit of any, such as the mode's to weight-only, under which a
    same-weight tamper would pass verify and audit, makes every command
    that loads the ledger exit 2, and write nothing."""
    seeded_upload(ledger_dir)
    assert run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "same-weight", "--server", "1",
                   "--block", "0") == 0
    path = ledger_dir / "0.snapshot"
    line, lf, rest = path.read_bytes().partition(b"\n")
    assert line.count(setting) == 1
    path.write_bytes(line.replace(setting, edited) + lf + rest)
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in (["verify"], ["audit", "--epochs", "0"], ["report"], ["recover"]):
        assert run_cli("--ledger-dir", str(ledger_dir), *command) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and "0.snapshot fails its chain line" in err, (command, err)
    assert dir_contents(ledger_dir) == before


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
