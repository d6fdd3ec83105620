"""Command-line scenario runner.

Ties the simulator together behind deterministic, scriptable subcommands:

    upload, verify, append, delete, update, tamper, crash, recover,
    audit, history, report

State lives in the ledger directory (--ledger-dir, or CLOUDLEDGER_DIR):
one file per committed epoch (<epoch>.snapshot: a redo record of the
upload or operation that committed it: its line, each block it wrote,
stored the first time and named by digest after, and a chain line, the
hash of its bytes and the chain of the files before it), the live
cluster (cluster.state: empty while no fault since the last commit or
restore is in effect, and otherwise a HEAD line naming the last epoch
and a line per tamper or crash since, which replay onto that point). The
upload's line in 0.snapshot records the settings, so the chain covers
them: a command's flags override those settings, which override the
defaults. The ledger module writes every file whole, through
ledger.write_file. history renders the operation journal from the
ledger's epochs. Identical settings plus an identical command sequence
reproduces byte-identical directory contents.

run resolves each input once. argparse checks the arguments, the payload
rule (an input file or --gen-bytes, exactly one) and the values of
--epochs and --gen-bytes too, and run locks the one ledger directory the
command then loads, so each cmd_* takes only the parsed arguments.

One command at a time writes: every command holds flock on the ledger
directory, if it exists, from before its load to after its last write,
exclusive for the commands that write and shared for the others, and a
command that finds it held waits. An upload makes the directory first,
so it always locks, and removes what it made again if it fails before
writing into it. fcntl makes this POSIX only.

Exit codes: 0 success / verified, 1 verification or operation failure,
2 I/O or usage failure (a usage failure before any lock or load), 3
preexisting data, 4 missing target, 5 stale epoch, 6 nothing to restore
(no committed restore point).
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple, Optional

from . import ops
from .audit import AuditGrant, audit as run_audit
from .cluster import (
    ClusterState,
    FaultKind,
    FaultSpec,
    inject_fault,
    new_cluster,
    read_manifest,
)
from .errors import (
    CloudLedgerError,
    EpochMismatch,
    NoSuchTarget,
    NothingToRestore,
    PostStateCorrupt,
    PreexistingData,
    PreStateCorrupt,
    SnapshotCorrupt,
)
from .ledger import (
    CLUSTER_FILE,
    Ledger,
    commit_restore_point,
    journal_line,
    load_cluster,
    load_ledger,
    recover,
    save_cluster,
    upload_line,
    upload_settings,
    write_file,
)
from .protocol import Mode, render_verdict_report, round_trip_verify, verify_equality
from .rng import generate_payload

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_IO = 2
EXIT_PREEXISTING = 3
EXIT_NO_TARGET = 4
EXIT_STALE = 5
EXIT_NOTHING_TO_RESTORE = 6

# One error class per exit code from 2 on; any other CloudLedgerError exits 1.
_EXIT_BY_ERROR = {
    SnapshotCorrupt: EXIT_IO,
    PreexistingData: EXIT_PREEXISTING,
    NoSuchTarget: EXIT_NO_TARGET,
    EpochMismatch: EXIT_STALE,
    NothingToRestore: EXIT_NOTHING_TO_RESTORE,
}

DEFAULT_SERVERS = 4
DEFAULT_BLOCK_SIZE = 4096
DEFAULT_MODE = Mode.CHECKSUM
DEFAULT_SEED = 42
DEFAULT_LEDGER_DIR = "ledger"

# What an upload writes before its commit, the rename of 0.snapshot.tmp. A
# directory holding nothing else has committed nothing, so an upload into it
# starts over.
_UPLOAD_FILES = {CLUSTER_FILE, f"{CLUSTER_FILE}.tmp", "0.snapshot.tmp"}


class SimConfig(NamedTuple):
    server_count: int
    block_size: Optional[int]  # None when nothing names one: only the upload uses it
    mode: Mode
    seed: int


def resolve_config(args: argparse.Namespace, recorded: dict[str, str]) -> SimConfig:
    """Flags override the settings ``recorded`` in the upload's line
    (upload_settings), which override the defaults. The block size has no
    default here: no command after the upload uses it, so it is None when
    nothing names it, and the upload passes the default as ``recorded``."""

    def pick(flag, key: str, fallback):
        return flag if flag is not None else recorded.get(key, fallback)

    block_size = pick(args.block_size, "block_size", None)
    return SimConfig(
        server_count=int(pick(args.servers, "servers", DEFAULT_SERVERS)),
        block_size=None if block_size is None else int(block_size),
        mode=Mode(pick(args.mode, "mode", DEFAULT_MODE.value)),
        seed=int(pick(args.seed, "seed", DEFAULT_SEED)),
    )


def _lock(directory: Path, exclusive: bool, create: bool = False) -> tuple[Optional[int], list[Path]]:
    """Take flock on the ledger directory, exclusive or shared, waiting for
    it, and return the descriptor that holds it until it is closed, and
    the directories this call made, deepest first. A directory that does
    not exist gets no lock, (None, []), unless ``create``: then it is made
    first, parents too, so two uploads into one new directory take turns.
    A lock that, once held, is no longer on the directory the path names
    (a failed upload removed the directories it made) is let go and the
    path locked again. The lock is on the directory itself, so no file is
    written, and the kernel drops it when the process dies."""
    while True:
        made = list(takewhile(lambda path: not path.exists(), [directory, *directory.parents])) if create else []
        if made:
            directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(directory, os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError):
            return None, []  # no ledger yet: nothing to lock
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            if os.path.samestat(os.fstat(fd), os.stat(directory)):
                return fd, made
        except FileNotFoundError:
            pass  # removed while this waited: lock what the path names now
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


def _load_state(args: argparse.Namespace, recovering: bool = False) -> tuple[SimConfig, ClusterState, Ledger]:
    """The settings, the live cluster and the ledger. Refuses a ledger that
    committed no point before it resolves the settings, which fall back on
    the upload's line, or reads cluster.state, and, unless ``recovering``,
    a live cluster behind the last committed epoch, which an operation
    that failed after its snapshot leaves."""
    ledger = load_ledger(args.ledger_dir)
    if not ledger.points:
        raise NothingToRestore(f"no restore points in {ledger.directory}")
    config = resolve_config(args, upload_settings(ledger))
    cluster = load_cluster(ledger, config.seed)
    if cluster.epoch != ledger.last().epoch and not recovering:
        raise EpochMismatch(f"{CLUSTER_FILE} is at epoch {cluster.epoch} but the ledger committed epoch"
                            f" {ledger.last().epoch}; run recover to restore it")
    return config, cluster, ledger


def _resolve_payload(args: argparse.Namespace, config: SimConfig, epoch: int) -> bytes:
    """The input file's bytes, or --gen-bytes seeded bytes: argparse lets exactly one through."""
    if args.input is not None:
        return Path(args.input).read_bytes()
    return generate_payload(config.seed ^ epoch, args.gen_bytes)


# --- commands ------------------------------------------------------------------


def cmd_upload(args: argparse.Namespace) -> int:
    config = resolve_config(args, {"block_size": str(DEFAULT_BLOCK_SIZE)})
    if args.ledger_dir.exists():
        kept = sorted(p.name for p in args.ledger_dir.iterdir() if p.name not in _UPLOAD_FILES)
        if kept:
            raise PreexistingData(f"ledger directory {args.ledger_dir} is not empty: it holds {kept[0]}")
    payload = _resolve_payload(args, config, epoch=0)
    cluster = new_cluster(config.server_count, rng_seed=config.seed)
    verdict = round_trip_verify(
        cluster, payload, config.server_count, config.block_size, config.mode
    )
    line = upload_line(config.server_count, config.block_size, config.mode, config.seed)
    print(
        f"UPLOAD bytes={len(payload)} servers={config.server_count}"
        f" block_size={config.block_size} mode={config.mode.value} seed={config.seed}"
    )
    print(render_verdict_report(verdict), end="")
    if not verdict.z:
        return EXIT_FAILED
    write_file(args.ledger_dir, CLUSTER_FILE, b"")  # the live cluster is the point committed next
    commit_restore_point(Ledger(directory=args.ledger_dir), cluster, verdict, line)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config, cluster, ledger = _load_state(args)
    stored = ledger.last().manifest
    verdict = verify_equality(stored, read_manifest(cluster), config.mode)
    report = render_verdict_report(verdict)
    if args.report:
        print(report, end="")
    else:
        print(report.splitlines()[0])
    return EXIT_OK if verdict.z else EXIT_FAILED


def cmd_op(args: argparse.Namespace) -> int:
    config, cluster, ledger = _load_state(args)
    kind = ops.OperationKind(args.op_kind)
    payload: Optional[bytes] = None
    if kind in (ops.OperationKind.APPEND, ops.OperationKind.UPDATE):
        payload = _resolve_payload(args, config, epoch=cluster.epoch)
    request = ops.OperationRequest(
        kind=kind,
        server_index=args.server,
        block_id=args.block if kind is not ops.OperationKind.APPEND else None,
        payload=payload,
        epoch_expected=args.expect_epoch if args.expect_epoch is not None else cluster.epoch,
    )
    try:
        result = ops.apply(cluster, ledger, request)
    except (PreStateCorrupt, PostStateCorrupt) as exc:
        print(render_verdict_report(exc.verdict), end="")
        raise
    save_cluster(ledger, cluster)
    print(ops.render_journal_line(result))
    return EXIT_OK


def cmd_tamper(args: argparse.Namespace) -> int:
    _, cluster, ledger = _load_state(args)
    fault = FaultSpec(
        kind=FaultKind(args.kind),
        target_server=args.server,
        target_block=args.block,
        seed=args.fault_seed,
    )
    report = inject_fault(cluster, fault)
    save_cluster(ledger, cluster)
    block = report.target_block if report.target_block is not None else "-"
    print(f"TAMPER {report.kind.value} server={report.target_server} block={block} note={report.note}")
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    _, cluster, ledger = _load_state(args, recovering=True)
    report = recover(ledger, cluster)
    save_cluster(ledger, cluster)
    print(f"{report.action.value} epoch={report.epoch}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    config, cluster, ledger = _load_state(args)
    verdicts = run_audit(ledger, cluster, AuditGrant(*args.epochs, config.mode))
    for verdict in verdicts:
        for line in render_verdict_report(verdict).splitlines():
            print(f"TPA {line}")
    return EXIT_OK if all(v.z for v in verdicts) else EXIT_FAILED


def cmd_history(args: argparse.Namespace) -> int:
    """One line per committed operation, as the operation printed it: the
    operation line of each epoch from 1, the change of the total as delta
    and the new total as s_after."""
    points = load_ledger(args.ledger_dir).points
    for before, point in zip(points, points[1:]):
        total = point.manifest.total_weight
        print(journal_line(point.epoch, point.op, total - before.manifest.total_weight, total))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    config, cluster, ledger = _load_state(args)
    print(
        f"REPORT epoch={cluster.epoch} servers={cluster.server_count}"
        f" block_size={'-' if config.block_size is None else config.block_size}"
        f" mode={config.mode.value} seed={config.seed}"
    )
    print(f"live_total={cluster.total_stored_bytes()}")
    print(f"points={len(ledger.points)}")
    for point in ledger.points:
        print(point.epoch, point.timestamp, point.committed_x)
    print("END")
    return EXIT_OK


# The commands that write into the ledger directory, holding its lock exclusive.
_WRITERS = (cmd_upload, cmd_op, cmd_tamper, cmd_recover)


# --- parser ----------------------------------------------------------------------


def _epoch_range(text: str) -> tuple[int, int]:
    """--epochs: ``first..last``, inclusive, or one epoch."""
    first, sep, last = text.partition("..")
    try:
        return int(first), int(last if sep else first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid epoch range: {text!r}") from None


def _byte_count(text: str) -> int:
    """--gen-bytes: an int, 0 or more."""
    try:
        if (count := int(text)) >= 0:
            return count
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    raise argparse.ArgumentTypeError(f"payload size must be >= 0, got {count}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudledger",
        description="Deterministic multi-server storage integrity simulator.",
    )
    parser.add_argument("--servers", type=int, help=f"server count (default {DEFAULT_SERVERS})")
    parser.add_argument("--block-size", type=int, help=f"block size in bytes (default {DEFAULT_BLOCK_SIZE})")
    parser.add_argument("--mode", choices=[m.value for m in Mode], help="comparison mode")
    parser.add_argument("--seed", type=int, help=f"seed for payload generation and faults (default {DEFAULT_SEED})")
    parser.add_argument("--ledger-dir", help="state directory (default $CLOUDLEDGER_DIR or ./ledger)")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_payload_args(p: argparse.ArgumentParser) -> None:
        payload = p.add_mutually_exclusive_group(required=True)
        payload.add_argument("input", nargs="?", help="payload file")
        payload.add_argument("--gen-bytes", type=_byte_count,
                             help="generate this many seeded bytes instead of reading a file")

    p = sub.add_parser("upload", help="initial upload with before/after verification")
    add_payload_args(p)
    p.set_defaults(func=cmd_upload)

    p = sub.add_parser("verify", help="compare the last committed manifest against live cloud state")
    p.add_argument("--report", action="store_true", help="print one line per divergence")
    p.set_defaults(func=cmd_verify)

    for kind in ops.OperationKind:
        p = sub.add_parser(kind.value.lower(), help=f"verified {kind.value.lower()} operation")
        p.add_argument("--server", type=int, required=True)
        if kind is not ops.OperationKind.APPEND:
            p.add_argument("--block", type=int, required=True)
        else:
            p.set_defaults(block=None)
        if kind is not ops.OperationKind.DELETE:
            add_payload_args(p)
        p.add_argument("--expect-epoch", type=int, help="fail with a stale-epoch error unless this is current")
        p.set_defaults(func=cmd_op, op_kind=kind.value)

    p = sub.add_parser("tamper", help="inject one deterministic fault")
    p.add_argument("--kind", required=True, choices=[k.value for k in FaultKind])
    p.add_argument("--server", type=int, required=True)
    p.add_argument("--block", type=int)
    p.add_argument("--fault-seed", type=int, default=0,
                   help="xored into the upload's seed to seed the fault byte stream (default 0: the upload's seed)")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("crash", help="crash a server (erases its blocks)")
    p.add_argument("--server", type=int, required=True)
    p.set_defaults(func=cmd_tamper, kind=FaultKind.SERVER_CRASH.value, block=None, fault_seed=0)

    p = sub.add_parser("recover", help="restore from the last restore point unless intact")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("audit", help="third-party audit of committed epochs")
    p.add_argument("--epochs", type=_epoch_range, required=True, help="inclusive epoch range, e.g. 0..3 or a single epoch")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=argparse.SUPPRESS, help="override the global --mode")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("history", help="print the operation journal")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("report", help="print ledger and storage summary")
    p.set_defaults(func=cmd_report)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.ledger_dir = Path(args.ledger_dir or os.environ.get("CLOUDLEDGER_DIR") or DEFAULT_LEDGER_DIR)
    lock, made, code = None, [], EXIT_FAILED
    try:
        lock, made = _lock(args.ledger_dir, exclusive=args.func in _WRITERS, create=args.func is cmd_upload)
        code = args.func(args)
    except CloudLedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = _EXIT_BY_ERROR.get(type(exc), EXIT_FAILED)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    finally:
        if code != EXIT_OK:  # before the lock goes, so a waiting upload finds the path gone
            with contextlib.suppress(OSError):  # not empty: the upload wrote files, which a retry replaces
                for path in made:
                    path.rmdir()
        if lock is not None:
            os.close(lock)
    return code


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
