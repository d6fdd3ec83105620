"""The bulk snapshot decoder against the per-line decoder it replaced.

reference_parse_manifest and reference_load_snapshot are the decoders as
they were before parse_manifest and load_snapshot went to column-wise
decoding: one line and one record at a time, with lines cut by
str.splitlines, and a snapshot cut into its server sections at their END
lines. They are the oracle. Over seeded manifests and snapshots, and
over every single-byte deletion and a seeded sample of single-character
insertions and replacements of them, the new decoders must reject what
the oracle rejects, with the same exception class, and return an equal
value where it accepts. The one licensed difference: splitlines also
ends a line at CR, form feed, U+2028 and the like, and accepts a text
whose last line lacks its LF; the new decoders accept LF line ends only,
so on such texts they may reject what the oracle accepted.
"""

import random
from hashlib import sha256

import pytest

from cloudledger import (
    BlockRecord,
    DataBlock,
    Level,
    Manifest,
    SnapshotCorrupt,
    load_ledger,
    load_snapshot,
    new_cluster,
    parse_manifest,
    serialize_manifest,
)
from cloudledger import cli
from cloudledger.cluster import SNAPSHOT_HEADER
from cloudledger.manifest import _RECORD_LINES, _bad_record, _parse_header, _render_header
from helpers import make_committed_state

# --- the oracle: the per-line decoders ----------------------------------------


def reference_parse_manifest(text):
    lines = text.splitlines()
    if not lines:
        raise SnapshotCorrupt("empty manifest text")
    header = _parse_header(lines[0])
    try:
        level = Level(header["level"])
        epoch = int(header["epoch"])
        server_count = int(header["servers"])
        total = int(header["total"])
    except (KeyError, ValueError) as exc:
        raise SnapshotCorrupt(f"bad manifest header: {lines[0]!r}") from exc
    if epoch < 0:
        raise SnapshotCorrupt(f"manifest epoch {epoch} is negative")
    if lines[0] != _render_header(level, epoch, server_count, total):
        raise SnapshotCorrupt(f"manifest header is not canonical: {lines[0]!r}")
    if not lines[-1] == "END":
        raise SnapshotCorrupt("manifest not terminated by END")
    section = "\n".join(lines[1:])
    canonical = _RECORD_LINES.match(section).end()
    if canonical != len(section) - len("END"):
        raise _bad_record(section[canonical:].partition("\n")[0])
    records = [BlockRecord(int(s), int(b), int(w), int(c, 16)) for s, b, w, c in map(str.split, lines[1:-1])]
    for prev, cur in zip(records, records[1:]):
        if prev.key >= cur.key:
            raise SnapshotCorrupt("records out of order")
    if records and records[-1].server_index >= server_count:
        raise SnapshotCorrupt(f"record server {records[-1].server_index} outside servers={server_count}")
    manifest = Manifest(level=level, epoch=epoch, records=tuple(records), server_count=server_count)
    if manifest.total_weight != total:
        raise SnapshotCorrupt("header total does not match record weights")
    return manifest


def reference_load_snapshot(text, blocks, rng_seed=0):
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotCorrupt(f"snapshot does not start with {SNAPSHOT_HEADER!r}")
    sections, start = [], 1
    while start < len(lines):  # one section per server: its manifest, its END, its digest lines, END
        if "END" not in lines[start + 1 :]:
            raise SnapshotCorrupt("snapshot missing manifest terminator")
        split = lines.index("END", start + 1)
        manifest = reference_parse_manifest("\n".join(lines[start : split + 1]) + "\n")
        if manifest.server_count < 1:
            raise SnapshotCorrupt(f"snapshot manifest has servers={manifest.server_count}")
        if manifest.level is not Level.CLOUD:
            raise SnapshotCorrupt(f"snapshot manifest has level={manifest.level.value}")
        if sections and (manifest.epoch, manifest.server_count) != (sections[0][0].epoch, sections[0][0].server_count):
            raise SnapshotCorrupt("snapshot sections disagree on the epoch or the server count")
        if any(record.server_index != len(sections) for record in manifest.records):
            raise SnapshotCorrupt(f"snapshot section {len(sections)} holds a record of another server")
        if "END" not in lines[split + 1 :]:
            raise SnapshotCorrupt("snapshot not terminated by END")
        end = lines.index("END", split + 1)
        digests = lines[split + 1 : end]
        if len(digests) != len(manifest.records):
            raise SnapshotCorrupt(f"snapshot has {len(digests)} digest lines for {len(manifest.records)} records")
        sections.append((manifest, digests))
        start = end + 1
    if not sections or len(sections) != sections[0][0].server_count:
        raise SnapshotCorrupt(f"snapshot has {len(sections)} server sections")
    cluster = new_cluster(sections[0][0].server_count, rng_seed=rng_seed)
    cluster.epoch = sections[0][0].epoch
    for manifest, digests in sections:
        for record, digest in zip(manifest.records, digests):
            block = blocks.get(digest)
            if block is None:
                raise SnapshotCorrupt(f"server={record.server_index} block={record.block_id} references {digest}")
            if (len(block.payload), block.checksum) != (record.weight, record.checksum):
                raise SnapshotCorrupt(f"block referenced by server={record.server_index} block={record.block_id}")
            cluster.servers[record.server_index].put(record.block_id, block)
    return cluster


# --- seeded inputs ----------------------------------------------------------------

EDGE_CHECKSUMS = (0, 1, 2**64 - 1)


def seeded_snapshot(seed):
    """A snapshot text, its block store and its manifest: up to 4 servers,
    some of them empty, sparse block ids up to 600 (above CPython's
    small-int cache), checksums including 0 and 2**64 - 1, and possibly no
    records. The text is the v12 grammar written out anew: one section per
    server, its manifest and then its digest lines, each ending in END."""
    rng = random.Random(seed)
    server_count = rng.randint(1, 4)
    epoch = rng.choice((0, 1, 7, 300))
    holding = sorted(rng.sample(range(server_count), rng.randint(0, server_count)))
    blocks, records, sections = {}, [], []
    for server in range(server_count):
        held, digests = [], []
        for block_id in sorted(rng.sample(range(601), rng.randint(1, 2))) if server in holding else ():
            payload = rng.randbytes(rng.choice((0, 1, 5, 300)))
            checksum = rng.choice(EDGE_CHECKSUMS + (rng.getrandbits(64),))
            digest = sha256(payload + bytes([seed % 256, len(records)])).hexdigest()
            blocks[digest] = DataBlock(payload, checksum, digest)
            held.append(BlockRecord(server, block_id, len(payload), checksum))
            digests.append(digest)
        records += held
        part = Manifest(Level.CLOUD, epoch, tuple(held), server_count)
        sections.append(serialize_manifest(part) + "".join(f"{line}\n" for line in digests) + "END\n")
    manifest = Manifest(Level.CLOUD, epoch, tuple(records), server_count)
    return SNAPSHOT_HEADER + "\n" + "".join(sections), blocks, manifest


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
    return (cluster.epoch, cluster.faults, cluster.rng_seed, cluster.previous_records,
            [(s.server_index, list(s.blocks.items()), list(s.records.items())) for s in cluster.servers])


def assert_agrees(text, expected, actual, value=lambda x: x):
    if isinstance(expected, Exception):
        assert type(actual) is type(expected), (text, expected, actual)
    elif isinstance(actual, Exception):
        assert not lf_only(text), (text, actual)
        assert isinstance(actual, SnapshotCorrupt), (text, actual)
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


@pytest.mark.parametrize("seed", SEEDS)
def test_a_load_into_the_cluster_of_the_snapshot_agrees_with_the_per_line_oracle(seed):
    """Into a cluster loaded from the unedited text, every section an edit
    left alone is that cluster's own rendering, which the load skips: the
    result, or the refusal, must still be the oracle's, and a refusal must
    leave the cluster as it was."""
    text, blocks, _ = seeded_snapshot(seed)
    for edited in single_character_edits(text, random.Random(seed), 300):
        into = load_snapshot(text, blocks, rng_seed=seed)
        before = cluster_value(into)
        loaded = outcome(load_snapshot, edited, blocks, seed, into)
        assert_agrees(edited, outcome(reference_load_snapshot, edited, blocks, seed), loaded, cluster_value)
        if isinstance(loaded, Exception):
            assert cluster_value(into) == before, edited


def test_the_seeds_cover_the_edge_cases():
    snapshots = [seeded_snapshot(seed) for seed in SEEDS]
    records = [r for _, _, m in snapshots for r in m.records]
    assert any(r.block_id > 256 for r in records)
    assert {0, 2**64 - 1} <= {r.checksum for r in records}
    assert any(not m.records for _, _, m in snapshots)
    assert any(0 < len({r.server_index for r in m.records}) < m.server_count for _, _, m in snapshots)


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
        with pytest.raises(SnapshotCorrupt):
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
    with pytest.raises(SnapshotCorrupt, match="not terminated by END"):
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


@pytest.mark.parametrize("name", ["0.snapshot", "1.snapshot", "cluster.state"])
def test_a_ledger_file_rewritten_to_crlf_is_rejected(ledger_dir, capsys, name):
    if name == "cluster.state":  # empty while it is the last point; a pending fault writes it out
        assert cli.run(["--ledger-dir", str(ledger_dir), "tamper", "--kind", "flip-byte", "--server", "0",
                        "--block", "0"]) == 0
    path = ledger_dir / name
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    if name != "cluster.state":
        with pytest.raises(SnapshotCorrupt):
            load_ledger(ledger_dir)
    capsys.readouterr()
    for command in ("verify", "audit --epochs 0..1"):
        assert cli.run(["--ledger-dir", str(ledger_dir), *command.split()]) == 2, command
        assert "error:" in capsys.readouterr().err


def test_a_committed_ledger_still_loads(tmp_path):
    _, ledger = make_committed_state(bytes(range(200)), 3, 16, directory=tmp_path / "ledger")
    assert load_ledger(tmp_path / "ledger").points == ledger.points
