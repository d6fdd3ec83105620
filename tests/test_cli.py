"""CLI behavior: exit codes, reports, persistence layout, determinism."""

import re
from pathlib import Path

import pytest

from cloudledger import Level, build_manifest, cli, load_ledger, partition_upload, serialize_manifest
from cloudledger.rng import generate_payload

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
    assert (ledger_dir / "index").read_text() == "0 1 1600\n"
    for name in ("0.snapshot", "cluster.state", "config"):
        assert (ledger_dir / name).exists()
    assert not (ledger_dir / "0.manifest").exists()


def test_upload_empty_file(ledger_dir, tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    rc = run_cli("--ledger-dir", str(ledger_dir), "upload", str(empty))
    assert rc == 0
    assert (ledger_dir / "index").read_text() == "0 1 0\n"


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
    assert (ledger_dir / "index").read_text() == f"0 1 {2 * MIB}\n"
    manifest_head = (ledger_dir / "0.snapshot").read_text().splitlines()[1]
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


def test_snapshot_naming_unknown_server_exits_2(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    state = ledger_dir / "cluster.state"
    state.write_text(state.read_text().replace("servers=3", "servers=1", 1))
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 2
    assert "snapshot manifest unreadable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda text: text.replace(" epoch=0 ", " epoch=-1 ", 1), "manifest epoch -1 is negative"),
        (lambda text: text.replace("\n0 0 ", "\n0 -1 ", 1), "record block -1 is negative"),
    ],
)
def test_cluster_state_with_a_negative_epoch_or_block_exits_2(ledger_dir, capsys, edit, error):
    seeded_upload(ledger_dir)
    assert_edited_cluster_state_exits_2(ledger_dir, capsys, edit, error)


def assert_edited_cluster_state_exits_2(ledger_dir, capsys, edit, error):
    """verify and recover both reject the edited cluster.state, and leave it as it is."""
    state = ledger_dir / "cluster.state"
    edited = edit(state.read_text(encoding="utf-8"))
    assert edited != state.read_text(encoding="utf-8")
    state.write_text(edited, encoding="utf-8")
    capsys.readouterr()
    for command in ("verify", "recover"):
        assert run_cli("--ledger-dir", str(ledger_dir), command) == 2
        assert error in capsys.readouterr().err
    assert state.read_text(encoding="utf-8") == edited


def add_status_lines(*lines):
    return lambda text: text[: -len("END\n")] + "".join(line + "\n" for line in lines) + "END\n"


@pytest.mark.parametrize(
    "edit, error",
    [
        (add_status_lines("STALE"), "STALE line at epoch 0"),
        (add_status_lines("DOWN 1"), "DOWN line names server 1, which holds records"),
        (add_status_lines("STALE", "STALE"), "bad or repeated snapshot line: 'STALE'"),
        (add_status_lines("DOWN 2", "DOWN 2"), "bad or repeated snapshot line: 'DOWN 2'"),
        (add_status_lines("DOWN 01"), "bad or repeated snapshot line: 'DOWN 01'"),
        (add_status_lines("DOWN \u0661"), "bad or repeated snapshot line: 'DOWN \u0661'"),  # Arabic-Indic 1
    ],
    ids=["stale-at-epoch-0", "down-server-with-records", "repeated-stale", "repeated-down", "zero-padded-down",
         "non-ascii-down"],
)
def test_cluster_state_with_a_status_line_snapshots_never_write_exits_2(ledger_dir, capsys, edit, error):
    seeded_upload(ledger_dir)
    assert_edited_cluster_state_exits_2(ledger_dir, capsys, edit, error)


@pytest.mark.parametrize("servers", ["0", "-1"])
def test_cluster_state_of_no_servers_exits_2(ledger_dir, capsys, servers):
    seeded_upload(ledger_dir, gen_bytes=0)
    edit = lambda text: text.replace(" servers=3 ", f" servers={servers} ", 1)
    assert_edited_cluster_state_exits_2(ledger_dir, capsys, edit, f"snapshot manifest has servers={servers};")


def test_cluster_state_of_a_user_level_manifest_exits_2(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    edit = lambda text: text.replace(" level=CLOUD ", " level=USER ", 1)
    assert_edited_cluster_state_exits_2(ledger_dir, capsys, edit, "snapshot manifest has level=USER;")


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


def test_torn_index_tail_is_reported_as_a_partial_line(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    live = (ledger_dir / "cluster.state").read_bytes()
    run_cli("--ledger-dir", str(ledger_dir), "append", "--server", "0", "--gen-bytes", "40")
    # What the append leaves when it fails while writing its index line:
    # no journal line, and the live cluster of epoch 0.
    (ledger_dir / "journal").unlink()
    (ledger_dir / "cluster.state").write_bytes(live)
    index = ledger_dir / "index"
    assert index.read_text().endswith("\n1 2 1680\n")
    index.write_text(index.read_text()[: -len("80\n")])
    capsys.readouterr()
    for command in ("verify", "report", "audit --epochs 0"):
        assert run_cli("--ledger-dir", str(ledger_dir), *command.split()) == 2
        assert "index ends in a partial line at epoch 1: '1 2 16'" in capsys.readouterr().err
    # The partial line committed nothing: recover cuts it and keeps epoch 0.
    assert run_cli("--ledger-dir", str(ledger_dir), "recover") == 0
    out, err = capsys.readouterr()
    assert out == "INTACT epoch=0\n"
    assert "index ends in a partial line at epoch 1: '1 2 16'" in err
    assert index.read_text().count("\n") == 1 and index.read_text().endswith("\n")
    assert run_cli("--ledger-dir", str(ledger_dir), "verify") == 0


def test_an_edited_snapshot_address_exits_2_and_writes_nothing(ledger_dir, tmp_path, capsys):
    """Raising a block id in a committed snapshot keeps its weights, so X
    still matches; the epoch is no single operation on the one before."""
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(200)))
    flags = ("--servers", "3", "--block-size", "32", "--ledger-dir", str(ledger_dir))
    assert run_cli(*flags, "upload", str(payload)) == 0
    assert run_cli(*flags, "append", "--server", "1", "--gen-bytes", "8") == 0
    assert run_cli(*flags, "update", "--server", "2", "--block", "0", "--gen-bytes", "8") == 0
    snapshot = ledger_dir / "1.snapshot"
    text, edits = re.subn("^0 2 8 ", "0 9 8 ", snapshot.read_text(encoding="utf-8"), flags=re.MULTILINE)
    assert edits == 1
    snapshot.write_text(text, encoding="utf-8")
    before = dir_contents(ledger_dir)
    capsys.readouterr()
    for command in (["verify"], ["audit", "--epochs", "0..2"], ["recover"]):
        assert run_cli(*flags, *command) == 2
        assert "epoch 1 differs from epoch 0 in 1 removed and 2 added records" in capsys.readouterr().err
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
        # A v3 ledger whose cluster.state is still in an older format ...
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


def test_commit_while_stale_read_path_is_armed_keeps_the_ledger_loadable(ledger_dir, tmp_path, capsys):
    # An update that rewrites a block with its own bytes commits even while
    # the read path replays the previous epoch, so epoch 2's snapshot
    # records the STALE status line.
    seeded_upload(ledger_dir, gen_bytes=200)
    same_bytes = tmp_path / "block0.bin"
    same_bytes.write_bytes(generate_payload(42, 200)[:32])
    update = ("--ledger-dir", str(ledger_dir), "update", "--server", "0", "--block", "0", str(same_bytes))
    assert run_cli(*update) == 0
    assert run_cli("--ledger-dir", str(ledger_dir), "tamper", "--kind", "stale-manifest", "--server", "0") == 0
    assert run_cli(*update) == 0
    assert "STALE\n" in (ledger_dir / "2.snapshot").read_text()
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
    assert "STALE" not in (ledger_dir / "cluster.state").read_text().splitlines()
    assert run_cli("--ledger-dir", d, "append", "--server", "1", "--gen-bytes", "10") == 0
    assert run_cli("--ledger-dir", d, "recover") == 0
    assert capsys.readouterr().out.endswith("INTACT epoch=2\n")


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
    assert (ledger_dir / "index").read_text().count("\n") == 4


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


def test_report_prints_the_index_byte_for_byte(ledger_dir, capsys):
    seeded_upload(ledger_dir)
    for argv in (("append", "--server", "0", "--gen-bytes", "100"), ("update", "--server", "1", "--block", "2",
                 "--gen-bytes", "7"), ("delete", "--server", "2", "--block", "0")):
        assert run_cli("--ledger-dir", str(ledger_dir), *argv) == 0
    capsys.readouterr()
    assert run_cli("--ledger-dir", str(ledger_dir), "report") == 0
    out = capsys.readouterr().out.encode()
    assert out.split(b"points=4\n")[1] == (ledger_dir / "index").read_bytes() + b"END\n"


def test_ledger_dir_from_environment(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CLOUDLEDGER_DIR", str(target))
    assert run_cli("--servers", "2", "--block-size", "16", "upload", "--gen-bytes", "64") == 0
    assert (target / "index").exists()


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
