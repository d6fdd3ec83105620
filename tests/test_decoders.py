"""The bulk snapshot decoder against the per-line decoder it replaced.

reference_parse_manifest and reference_load_snapshot are the decoders as
they were before parse_manifest and load_snapshot went to column-wise
decoding: one line and one record at a time, with lines cut by
str.splitlines. They are the oracle. Over seeded manifests and
snapshots, and over every single-byte deletion and a seeded sample of
single-character insertions and replacements of them, the new decoders
must reject what the oracle rejects, with the same exception class, and
return an equal value where it accepts. The one licensed difference:
splitlines also ends a line at CR, form feed, U+2028 and the like, and
accepts a text whose last line lacks its LF; the new decoders accept LF
line ends only, so on such texts they may reject what the oracle accepted.
"""

import random
from hashlib import sha256

import pytest

from cloudledger import (
    BlockRecord,
    DataBlock,
    Level,
    Manifest,
    ManifestFormatError,
    SnapshotCorrupt,
    load_ledger,
    load_snapshot,
    new_cluster,
    parse_manifest,
    serialize_manifest,
)
from cloudledger import cli
from cloudledger.cluster import SNAPSHOT_HEADER, _RETIRED_HEADERS
from cloudledger.manifest import _RECORD_LINES, _bad_record, _parse_header, _render_header
from helpers import make_committed_state

# --- the oracle: the per-line decoders ----------------------------------------


def reference_parse_manifest(text):
    lines = text.splitlines()
    if not lines:
        raise ManifestFormatError("empty manifest text")
    header = _parse_header(lines[0])
    try:
        level = Level(header["level"])
        epoch = int(header["epoch"])
        server_count = int(header["servers"])
        total = int(header["total"])
    except (KeyError, ValueError) as exc:
        raise ManifestFormatError(f"bad manifest header: {lines[0]!r}") from exc
    if epoch < 0:
        raise ManifestFormatError(f"manifest epoch {epoch} is negative")
    if lines[0] != _render_header(level, epoch, server_count, total):
        raise ManifestFormatError(f"manifest header is not canonical: {lines[0]!r}")
    if not lines[-1] == "END":
        raise ManifestFormatError("manifest not terminated by END")
    section = "\n".join(lines[1:])
    canonical = _RECORD_LINES.match(section).end()
    if canonical != len(section) - len("END"):
        raise _bad_record(section[canonical:].partition("\n")[0])
    records = [BlockRecord(int(s), int(b), int(w), int(c, 16)) for s, b, w, c in map(str.split, lines[1:-1])]
    for prev, cur in zip(records, records[1:]):
        if prev.key >= cur.key:
            raise ManifestFormatError("records out of order")
    if records and records[-1].server_index >= server_count:
        raise ManifestFormatError(f"record server {records[-1].server_index} outside servers={server_count}")
    manifest = Manifest(level=level, epoch=epoch, records=tuple(records), server_count=server_count)
    if manifest.total_weight != total:
        raise ManifestFormatError("header total does not match record weights")
    return manifest


def reference_load_snapshot(text, blocks, rng_seed=0):
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        head = lines[0].split(" ")[:2] if lines else []
        if head in _RETIRED_HEADERS:
            raise SnapshotCorrupt(f"snapshot is in ledger format {head[1]}")
        raise SnapshotCorrupt(f"snapshot does not start with {SNAPSHOT_HEADER!r}")
    if "END" not in lines:
        raise SnapshotCorrupt("snapshot missing manifest terminator")
    split = lines.index("END")
    try:
        manifest = reference_parse_manifest("\n".join(lines[1 : split + 1]) + "\n")
    except ManifestFormatError as exc:
        raise SnapshotCorrupt(f"snapshot manifest unreadable: {exc}") from exc
    if manifest.server_count < 1:
        raise SnapshotCorrupt(f"snapshot manifest has servers={manifest.server_count}")
    if manifest.level is not Level.CLOUD:
        raise SnapshotCorrupt(f"snapshot manifest has level={manifest.level.value}")
    if lines[-1] != "END":
        raise SnapshotCorrupt("snapshot not terminated by END")
    count = len(manifest.records)
    body = lines[split + 1 : -1]
    digests, status = body[:count], body[count:]
    if len(digests) != count:
        raise SnapshotCorrupt(f"snapshot has {len(digests)} digest lines for {count} manifest records")
    down = set()
    stale = False
    for line in status:
        if line == "STALE" and not stale:
            stale = True
        elif line[5:].isdecimal() and line == f"DOWN {int(line[5:])}" and int(line[5:]) not in down:
            down.add(int(line[5:]))
        else:
            raise SnapshotCorrupt(f"bad or repeated snapshot line: {line!r}")
    if stale and manifest.epoch == 0:
        raise SnapshotCorrupt("STALE line at epoch 0")
    cluster = new_cluster(manifest.server_count, rng_seed=rng_seed)
    cluster.epoch = manifest.epoch
    cluster.stale_armed = stale
    for record, digest in zip(manifest.records, digests):
        block = blocks.get(digest)
        if block is None:
            raise SnapshotCorrupt(f"server={record.server_index} block={record.block_id} references {digest}")
        if (len(block.payload), block.checksum) != (record.weight, record.checksum):
            raise SnapshotCorrupt(f"block referenced by server={record.server_index} block={record.block_id}")
        cluster.servers[record.server_index].put(record.block_id, block)
    for server_index in down:
        if not 0 <= server_index < cluster.server_count:
            raise SnapshotCorrupt(f"DOWN line names unknown server {server_index}")
        if cluster.servers[server_index].blocks:
            raise SnapshotCorrupt(f"DOWN line names server {server_index}, which holds records")
        cluster.servers[server_index].alive = False
    return cluster


# --- seeded inputs ----------------------------------------------------------------

EDGE_CHECKSUMS = (0, 1, 2**64 - 1)


def seeded_snapshot(seed):
    """A snapshot text and its block store: up to 4 servers, sparse block ids
    up to 600 (above CPython's small-int cache), checksums including 0 and
    2**64 - 1, possibly no records, and DOWN and STALE lines."""
    rng = random.Random(seed)
    server_count = rng.randint(1, 4)
    epoch = rng.choice((0, 1, 7, 300))
    holding = sorted(rng.sample(range(server_count), rng.randint(0, server_count)))
    blocks, records, digests = {}, [], []
    for server in holding:
        for block_id in sorted(rng.sample(range(601), rng.randint(1, 2))):
            payload = rng.randbytes(rng.choice((0, 1, 5, 300)))
            checksum = rng.choice(EDGE_CHECKSUMS + (rng.getrandbits(64),))
            digest = sha256(payload + bytes([seed % 256, len(records)])).hexdigest()
            blocks[digest] = DataBlock(payload, checksum, digest)
            records.append(BlockRecord(server, block_id, len(payload), checksum))
            digests.append(digest)
    manifest = Manifest(Level.CLOUD, epoch, tuple(records), server_count)
    status = [f"DOWN {s}" for s in range(server_count) if s not in holding and rng.random() < 0.7]
    if epoch and rng.random() < 0.5:
        status.append("STALE")
    text = SNAPSHOT_HEADER + "\n" + serialize_manifest(manifest) + "".join(f"{line}\n" for line in digests + status)
    return text + "END\n", blocks, manifest


ALPHABET = "\n\r \t0159afEND-SOWTALx\x0b\x0c\x1c\x85\u2028\xe9\u0663"


def single_character_edits(text, rng, samples):
    """Every single-character deletion, then a seeded sample of insertions
    and replacements drawn from ALPHABET."""
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
    for _ in range(samples):
        i, ch = rng.randrange(len(text) + 1), rng.choice(ALPHABET)
        yield text[:i] + ch + text[i:]
        i = rng.randrange(len(text))
        yield text[:i] + ch + text[i + 1 :]


def lf_only(text):
    """True when LF is the text's only line end and it ends with one."""
    return text.endswith("\n") and text.splitlines() == text[:-1].split("\n")


def outcome(decode, *args):
    try:
        return decode(*args)
    except Exception as exc:  # compared by class below
        return exc


def cluster_value(cluster):
    return (cluster.epoch, cluster.stale_armed, cluster.rng_seed, cluster.previous_records,
            [(s.server_index, s.alive, list(s.blocks.items()), list(s.records.items())) for s in cluster.servers])


def assert_agrees(text, expected, actual, value=lambda x: x):
    if isinstance(expected, Exception):
        assert type(actual) is type(expected), (text, expected, actual)
    elif isinstance(actual, Exception):
        assert not lf_only(text), (text, actual)
        assert isinstance(actual, (ManifestFormatError, SnapshotCorrupt)), (text, actual)
    else:
        assert value(actual) == value(expected), text


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_manifest_agrees_with_the_per_line_oracle(seed):
    _, _, manifest = seeded_snapshot(seed)
    text = serialize_manifest(manifest)
    assert parse_manifest(text) == reference_parse_manifest(text) == manifest
    for edited in single_character_edits(text, random.Random(seed), 300):
        assert_agrees(edited, outcome(reference_parse_manifest, edited), outcome(parse_manifest, edited))


@pytest.mark.parametrize("seed", SEEDS)
def test_load_snapshot_agrees_with_the_per_line_oracle(seed):
    text, blocks, manifest = seeded_snapshot(seed)
    loaded = load_snapshot(text, blocks, rng_seed=seed)
    assert cluster_value(loaded) == cluster_value(reference_load_snapshot(text, blocks, rng_seed=seed))
    assert tuple(r for s in loaded.servers for r in s.records.values()) == manifest.records
    for edited in single_character_edits(text, random.Random(seed), 300):
        assert_agrees(edited, outcome(reference_load_snapshot, edited, blocks),
                      outcome(load_snapshot, edited, blocks), cluster_value)


def test_the_seeds_cover_the_edge_cases():
    snapshots = [seeded_snapshot(seed) for seed in SEEDS]
    records = [r for _, _, m in snapshots for r in m.records]
    assert any(r.block_id > 256 for r in records)
    assert {0, 2**64 - 1} <= {r.checksum for r in records}
    assert any(not m.records for _, _, m in snapshots)
    assert any("\nDOWN " in text for text, _, _ in snapshots)
    assert any("\nSTALE\n" in text for text, _, _ in snapshots)


# --- LF line ends only -------------------------------------------------------------


@pytest.fixture
def snapshot():
    for seed in SEEDS:
        text, blocks, manifest = seeded_snapshot(seed)
        if len(manifest.records) >= 2:
            return text, blocks, manifest
    raise AssertionError("no seeded snapshot with two records")


@pytest.mark.parametrize("line_end", ["\r\n", "\r", "\x1c", "\u2028"])
def test_a_manifest_with_another_line_end_is_rejected(snapshot, line_end):
    text = serialize_manifest(snapshot[2])
    first_record_end = text.index("\n", text.index("\n") + 1)
    for edited in (text.replace("\n", line_end), text[:first_record_end] + line_end + text[first_record_end + 1 :]):
        assert reference_parse_manifest(edited) == snapshot[2]
        with pytest.raises(ManifestFormatError):
            parse_manifest(edited)


@pytest.mark.parametrize("line_end", ["\r\n", "\u2028"])
def test_a_snapshot_with_another_line_end_is_rejected(snapshot, line_end):
    text, blocks, _ = snapshot
    digest_end = text.rindex("\n", 0, text.rindex("\nEND\n"))  # the LF ending the next-to-last line
    for edited in (text.replace("\n", line_end), text[:digest_end] + line_end + text[digest_end + 1 :]):
        assert cluster_value(reference_load_snapshot(edited, blocks)) == cluster_value(load_snapshot(text, blocks))
        with pytest.raises(SnapshotCorrupt):
            load_snapshot(edited, blocks)


def test_a_missing_final_line_feed_is_rejected(snapshot):
    text, blocks, manifest = snapshot
    manifest_text = serialize_manifest(manifest)
    assert reference_parse_manifest(manifest_text[:-1]) == manifest
    with pytest.raises(ManifestFormatError, match="not terminated by END"):
        parse_manifest(manifest_text[:-1])
    with pytest.raises(SnapshotCorrupt, match="not terminated by END"):
        load_snapshot(text[:-1], blocks)


@pytest.fixture
def ledger_dir(tmp_path):
    directory = tmp_path / "ledger"
    assert cli.run(["--ledger-dir", str(directory), "--servers", "3", "--block-size", "16",
                    "upload", "--gen-bytes", "100"]) == 0
    assert cli.run(["--ledger-dir", str(directory), "append", "--server", "1", "--gen-bytes", "20"]) == 0
    return directory


@pytest.mark.parametrize("name", ["0.snapshot", "1.snapshot", "index", "cluster.state"])
def test_a_ledger_file_rewritten_to_crlf_is_rejected(ledger_dir, capsys, name):
    if name == "cluster.state":  # empty while it is the last point; a pending fault writes it out
        assert cli.run(["--ledger-dir", str(ledger_dir), "tamper", "--kind", "flip-byte", "--server", "0",
                        "--block", "0"]) == 0
    path = ledger_dir / name
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    if name != "cluster.state":
        with pytest.raises((ManifestFormatError, SnapshotCorrupt)):
            load_ledger(ledger_dir)
    capsys.readouterr()
    for command in ("verify", "audit --epochs 0..1"):
        assert cli.run(["--ledger-dir", str(ledger_dir), *command.split()]) == 2, command
        assert "error:" in capsys.readouterr().err


def test_an_index_line_ended_by_another_separator_is_rejected(ledger_dir):
    index = ledger_dir / "index"
    index.write_bytes(index.read_bytes().replace(b"\n", b"\x1c", 1))
    with pytest.raises(ManifestFormatError, match=r"index line '0 1 \d+\\x1c1 2 \d+\\n' is not '0 1 \d+\\n'"):
        load_ledger(ledger_dir)


def test_a_committed_ledger_still_loads(tmp_path):
    _, ledger = make_committed_state(bytes(range(200)), 3, 16, directory=tmp_path / "ledger")
    assert load_ledger(tmp_path / "ledger").points == ledger.points
