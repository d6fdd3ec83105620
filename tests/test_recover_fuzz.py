"""Fuzz recover with one-byte edits and truncations of every ledger file.

Whatever one edit does to one file of a committed ledger directory,
recover must either exit non-zero and leave every file byte-identical,
or exit 0 with every committed epoch as it was, after which verify
passes. The inputs are a 3-epoch CLI ledger (upload, append, update), a
copy of it with a flip-byte pending, and a copy that a delete left as a
torn commit: its index line cut mid-line and no journal line. All three
commit the same 3 epochs. The edits are every
single byte set to its value xor 1, to LF or to "9", and every
truncation. pytest tries every edit of a file under SMALL bytes, and of
a larger one a seeded sample plus every cut at a line boundary. Run as a
script, it tries every edit of every file:

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

FLAGS = ("--servers", "3", "--block-size", "16", "--seed", "5")
SMALL = 200
SAMPLE = 16  # positions, and as many cuts, tried in each larger file
SEED = 1607


PARSER = cli.build_parser()


def run_cli(directory, *argv):
    """cli.run with its parser built once: building it costs more than a recover."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(cli, "build_parser", lambda: PARSER):
        return cli.run([*FLAGS, "--ledger-dir", str(directory), *argv])


def build_inputs(root):
    """The clean 3-epoch ledger, a copy of it with a flip-byte pending, and
    a copy whose 4th epoch a crash tore mid-way through its index line."""
    clean = root / "clean"
    for argv in (("upload", "--gen-bytes", "100"), ("append", "--server", "1", "--gen-bytes", "20"),
                 ("update", "--server", "0", "--block", "1", "--gen-bytes", "16")):
        assert run_cli(clean, *argv) == 0, argv
    tampered = root / "tampered"
    shutil.copytree(clean, tampered)
    assert run_cli(tampered, "tamper", "--kind", "flip-byte", "--server", "1", "--block", "0") == 0
    torn = root / "torn"
    shutil.copytree(clean, torn)
    journal = (torn / "journal").read_bytes()
    assert run_cli(torn, "delete", "--server", "2", "--block", "0") == 0
    index = torn / "index"
    index.write_bytes(index.read_bytes()[:-3])
    (torn / "journal").write_bytes(journal)
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


def violation(directory, original, name, edited, points):
    """Run recover on ``directory``, whose files are ``original`` but for
    ``name``, which is replaced by ``edited``: the broken rule, or None.
    The directory is put back as it was either way."""
    (directory / name).write_bytes(edited)
    after = original
    try:
        code = run_cli(directory, "recover")
        after = files(directory)
        if code != 0:
            return None if after == {**original, name: edited} else f"exit {code} and files written"
        if load_ledger(directory).points != points:
            return "exit 0 but committed epochs lost or changed"
        if run_cli(directory, "verify") != 0:
            return "exit 0 but verify fails"
        return None
    finally:
        for file, data in {**after, name: edited}.items():
            if file not in original:
                (directory / file).unlink()
            elif data != original[file]:
                (directory / file).write_bytes(original[file])


def fuzz(directory, points, rng=None):
    """Every violation over the edits of every file in ``directory``, whose
    committed epochs are ``points``, and the number of edits tried."""
    original = files(directory)
    found, tried = [], 0
    for name, data in sorted(original.items()):
        for label, edited in edits(data, rng):
            tried += 1
            broken = violation(directory, original, name, edited, points)
            if broken is not None:
                found.append(f"{directory.name}/{name} {label}: {broken}")
    return found, tried


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("kind", ["clean", "tampered", "torn"])
def test_recover_writes_nothing_or_keeps_every_committed_epoch(inputs, kind):
    found, tried = fuzz(inputs[kind], load_ledger(inputs["clean"]).points, random.Random(SEED))
    assert tried > 500
    assert not found, f"{len(found)} of {tried} edits: " + "; ".join(found[:10])


def main():
    with tempfile.TemporaryDirectory() as root:
        total = []
        inputs = build_inputs(Path(root))
        points = load_ledger(inputs["clean"]).points
        for directory in inputs.values():
            found, tried = fuzz(directory, points)
            print(f"{directory.name}: {tried} edits, {len(found)} violations")
            total += found
        for line in total:
            print(line)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
