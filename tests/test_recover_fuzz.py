"""Fuzz recover with one-byte edits and truncations of every ledger file.

Whatever one edit does to one file of a committed ledger directory,
recover must either exit non-zero and leave every file byte-identical,
or exit 0 with every committed epoch as it was, after which verify
passes. The inputs are a 3-epoch CLI ledger (upload, append, update), a
copy of it with a flip-byte pending, and the state a crash after a
commit's rename leaves: on 3 servers, the upload leaving server 2 empty,
a crash of server 2, then an append that failed at its cluster.state
write, so 3.snapshot is in place while cluster.state is still at epoch 2
with DOWN 2, beside the partial 4.snapshot.tmp of a later torn write.
The edits
are every single byte set to its value xor 1, to LF or to "9", and every
truncation. pytest tries every edit of a file under SMALL bytes, and of
a larger one a seeded sample plus every cut at a line boundary.

A second, rechained pass tries each edit of an epoch file again with
every chain line from that epoch on recomputed, so that the parser and
the replay rules, not the chain, meet the edit. Its invariant: no
traceback and no exit but 0 or 2; after an exit 2 every file is as it
was, and after an exit 0 verify passes. An exit 0 that changes a
committed epoch is a consistent rewrite, a blind spot the README names
that only an anchor outside the directory closes: it is counted, not
refused. Run as a script, it tries every edit of every file in both
passes:

    PYTHONPATH=src python -X dev -W error tests/test_recover_fuzz.py
"""

import contextlib
import io
import random
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from cloudledger import cli, load_ledger
from cloudledger import ledger as ledger_module
from helpers import rechain

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")
SMALL = 200
SAMPLE = 20  # positions, and as many cuts, tried in each larger file
SEED = 1607
REWRITE = "a consistent rewrite"  # what the rechained pass counts, but does not refuse


PARSER = cli.build_parser()


def run_cli(directory, *argv):
    """cli.run with its parser built once: building it costs more than a recover."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(cli, "build_parser", lambda: PARSER):
        return cli.run([*FLAGS, "--ledger-dir", str(directory), *argv])


def failing_write(name, torn=False):
    """The crash injector: ledger.write_file raises at its write of
    ``name``, after writing half of it to the ``.tmp`` file if ``torn``."""
    real_write_file = ledger_module.write_file

    def write_file(directory, written, data):
        if written == name:
            if torn:
                (directory / f"{name}.tmp").write_bytes(data[: len(data) // 2])
            raise OSError(f"injected failure at {name}")
        real_write_file(directory, written, data)

    return mock.patch.object(ledger_module, "write_file", write_file)


def build_inputs(root):
    """The clean 3-epoch ledger, a copy of it with a flip-byte pending, and
    a ledger whose last append a crash cut after its commit's rename,
    beside a partial 4.snapshot.tmp."""
    clean = root / "clean"
    for argv in (("upload", "--gen-bytes", "100"), ("append", "--server", "1", "--gen-bytes", "20"),
                 ("update", "--server", "0", "--block", "1", "--gen-bytes", "16")):
        assert run_cli(clean, *argv) == 0, argv
    tampered = root / "tampered"
    shutil.copytree(clean, tampered)
    assert run_cli(tampered, "tamper", "--kind", "flip-byte", "--server", "1", "--block", "0") == 0
    torn = root / "torn"
    for argv in (("upload", "--gen-bytes", "30"), ("append", "--server", "1", "--gen-bytes", "20"),
                 ("update", "--server", "0", "--block", "0", "--gen-bytes", "16"), ("crash", "--server", "2")):
        assert run_cli(torn, *argv) == 0, argv
    with failing_write("cluster.state"):
        assert run_cli(torn, "append", "--server", "0", "--gen-bytes", "20") == 2
    assert b"DOWN 2\n" in (torn / "cluster.state").read_bytes() and (torn / "3.snapshot").exists()
    # The partial 4.snapshot.tmp of an append torn after a recover, made on a copy.
    spare = root / "spare"
    shutil.copytree(torn, spare)
    assert run_cli(spare, "recover") == 0
    with failing_write("4.snapshot", torn=True):
        assert run_cli(spare, "append", "--server", "1", "--gen-bytes", "20") == 2
    shutil.copy(spare / "4.snapshot.tmp", torn)
    shutil.rmtree(spare)
    return {"clean": clean, "tampered": tampered, "torn": torn}


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def edits(data, rng=None):
    """(label, edited bytes): every edit of ``data``, or with ``rng`` and
    ``data`` of SMALL bytes or more, a sample plus every line-boundary cut."""
    positions, cuts = range(len(data)), range(len(data))
    if rng is not None and len(data) >= SMALL:
        positions = sorted(rng.sample(positions, SAMPLE))
        lines = [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]
        cuts = sorted({0, *lines, *rng.sample(cuts, SAMPLE)})
    for i in positions:
        for value in {data[i] ^ 1, ord("\n"), ord("9")} - {data[i]}:
            yield f"byte {i} = {value:#04x}", data[:i] + bytes([value]) + data[i + 1 :]
    for n in cuts:
        yield f"cut to {n} bytes", data[:n]


def violation(directory, original, name, edited, points, rechained=False):
    """Run recover on ``directory``, whose files are ``original`` but for
    ``name``, which is replaced by ``edited``, and, ``rechained``, every
    chain line from its epoch on recomputed: the broken rule, REWRITE for a
    rechained exit 0 that changed a committed epoch, or None. The
    directory is put back as it was either way."""
    (directory / name).write_bytes(edited)
    if rechained:
        rechain(directory, int(name.partition(".")[0]))
    before = files(directory)
    try:
        code = run_cli(directory, "recover")
        if code != 0:
            if rechained and code != 2:
                return f"exit {code}"
            return None if files(directory) == before else f"exit {code} and files written"
        changed = load_ledger(directory).points != points
        if changed and not rechained:
            return "exit 0 but committed epochs lost or changed"
        if run_cli(directory, "verify") != 0:
            return "exit 0 but verify fails"
        return REWRITE if changed else None
    except Exception as exc:  # a traceback is a violation of its own
        return f"{type(exc).__name__}: {exc}"
    finally:
        after = files(directory)
        for file in after.keys() - original.keys():
            (directory / file).unlink()
        for file, data in original.items():
            if after.get(file) != data:
                (directory / file).write_bytes(data)


def fuzz(directory, rng=None, rechained=False):
    """Every violation over the edits of every file in ``directory``, or,
    ``rechained``, of every epoch file with its chain recomputed; the
    number of edits tried; and the edits that loaded as a consistent
    rewrite."""
    points = load_ledger(directory).points
    original = files(directory)
    found, tried, rewrites = [], 0, []
    for name, data in sorted(original.items()):
        if rechained and not name.endswith(".snapshot"):
            continue
        for label, edited in edits(data, rng):
            tried += 1
            broken = violation(directory, original, name, edited, points, rechained)
            if broken == REWRITE:
                rewrites.append(f"{directory.name}/{name} {label}")
            elif broken is not None:
                found.append(f"{directory.name}/{name} {label}: {broken}")
    return found, tried, rewrites


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("kind", ["clean", "tampered", "torn"])
def test_recover_writes_nothing_or_keeps_every_committed_epoch(inputs, kind):
    found, tried, _ = fuzz(inputs[kind], random.Random(SEED))
    assert tried > 450
    assert not found, f"{len(found)} of {tried} edits: " + "; ".join(found[:10])


@pytest.mark.parametrize("kind", ["clean", "tampered", "torn"])
def test_recover_behind_a_recomputed_chain_exits_0_or_2_and_keeps_verify_passing(inputs, kind):
    found, tried, _ = fuzz(inputs[kind], random.Random(SEED), rechained=True)
    assert tried > 450
    assert not found, f"{len(found)} of {tried} edits: " + "; ".join(found[:10])


def main():
    with tempfile.TemporaryDirectory() as root:
        total = []
        for directory in build_inputs(Path(root)).values():
            found, tried, _ = fuzz(directory)
            print(f"{directory.name}: {tried} edits, {len(found)} violations")
            total += found
            found, tried, rewrites = fuzz(directory, rechained=True)
            print(f"{directory.name} rechained: {tried} edits of epoch files, {len(found)} violations,"
                  f" {len(rewrites)} consistent rewrites")
            total += found
        for line in total:
            print(line)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
