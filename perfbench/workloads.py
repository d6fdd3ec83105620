"""The three benchmark workloads.

Each workload has one client in a closed loop: the next command or call is
issued only after the previous one has returned. A run is a fixed amount of
work: one session per ``NOMINAL_SECONDS`` of ``--seconds`` plus the set-ups.
Sample counts, and so the percentile a ``_tail`` metric reports, never
depend on how fast the program is.

- ``cli-session``: every command is a fresh ``python -m cloudledger``
  process; a seeded script of appends, updates and deletes, each followed
  by ``verify``, with audits and two tamper/verify/recover cycles per fault
  kind, grows the ledger epoch by epoch.
- ``cli-readback``: set-up builds a ledger through the CLI; the timed part
  repeats read commands on it. Every round also runs a probe (one operation
  and one fault cycle) on a throw-away copy, so operation and recovery
  latency are measured at full history depth without the read-back ledger
  ever changing.
- ``lib-churn``: in-process library calls on an in-memory ledger with many
  small blocks: apply, verify, fault, both-mode check, recover, and an
  audit every other loop.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import model
import tracer as tracing
from model import FAULT_KINDS, Step, Store

NOMINAL_SECONDS = 20

# The machine's speed drifts by up to 1.5x over tens of seconds on a shared
# host (other tenants on the same cores), and a pure-Python reference loop
# timed beside the program tracks that drift. Every timing is therefore
# reported at reference speed: the wall time multiplied by
# REFERENCE_NOMINAL_S over the reference loop's mean time within
# REFERENCE_WINDOW_S either side of the sample, the fastest and slowest
# fifth left out. One 0.5 ms timing of the loop jitters more than the drift
# moves in a few seconds, and a command of a few hundred milliseconds sees
# the average speed over its run. The loop is the benchmark's own, so no
# change to the program can move it.
REFERENCE_NOMINAL_S = 0.0005
REFERENCE_WINDOW_S = 3.0
_REFERENCE_INPUT = bytes(range(256)) * 16
SETUPS = 5  # set-ups per run; setup_s is their median
LIB_AUDIT_EVERY = 2  # lib-churn audits every other loop


@dataclass(frozen=True)
class CliSpec:
    servers: int
    block_size: int
    payload_bytes: int
    epochs: int  # mutating commands per session
    audits: int  # points where audit --epochs 0..e runs in both modes, spread evenly
    append_bytes: tuple[int, int] = (200, 400)


@dataclass(frozen=True)
class ReadbackSpec:
    servers: int
    block_size: int
    payload_bytes: int
    epochs: int  # history depth the set-up builds
    rounds: int  # read rounds per session, one probe each
    append_bytes: tuple[int, int] = (200, 400)


@dataclass(frozen=True)
class LibSpec:
    servers: int
    block_size: int
    payload_bytes: int
    loops: int
    append_bytes: tuple[int, int] = (200, 400)


FULL = {
    "cli-session": CliSpec(servers=4, block_size=256, payload_bytes=16384, epochs=24, audits=8),
    "cli-readback": ReadbackSpec(servers=4, block_size=768, payload_bytes=49152, epochs=8, rounds=5),
    "lib-churn": LibSpec(servers=8, block_size=64, payload_bytes=262144, loops=24),
}

TOY = {
    "cli-session": CliSpec(servers=3, block_size=64, payload_bytes=768, epochs=6, audits=1,
                           append_bytes=(20, 40)),
    "cli-readback": ReadbackSpec(servers=3, block_size=64, payload_bytes=768, epochs=3, rounds=2,
                                 append_bytes=(20, 40)),
    "lib-churn": LibSpec(servers=3, block_size=16, payload_bytes=768, loops=6,
                         append_bytes=(20, 40)),
}


def reference_s() -> float:
    """Median time of three runs of a fixed 4 KiB FNV-style loop."""
    times = []
    for _ in range(3):
        h = 0xCBF29CE484222325
        start = time.perf_counter()
        for byte in _REFERENCE_INPUT:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Recorder:
    """Timings, checks and counters of one benchmark run."""

    def __init__(self) -> None:
        self.events: list[tuple[float, str, float]] = []  # (mid time, kind, wall seconds)
        self.references: list[tuple[float, float]] = []  # (time, reference loop seconds)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.ledger_ratio = 0.0  # ledger directory bytes / live user bytes, after the last session
        self.digests: list[str] = []
        self.layer_totals: list[dict[str, dict[str, float]]] = []  # one per traced instance
        self.commands_per_s: dict[str, list[float]] = {"traced": [], "untraced": []}

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def reference(self) -> None:
        """Time the reference loop now: before a stretch of samples, and after each."""
        self.references.append((time.perf_counter(), reference_s()))

    def timed(self, kind: str, wall: float) -> None:
        self.events.append((time.perf_counter() - wall / 2, kind, wall))
        self.reference()

    def at_reference_speed(self, start: int = 0) -> list[tuple[str, float]]:
        """(kind, seconds at reference speed) for events[start:]."""
        times = [t for t, _ in self.references]
        out = []
        for mid, kind, wall in self.events[start:]:
            lo = bisect.bisect_left(times, mid - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(times, mid + REFERENCE_WINDOW_S)
            # A sample longer than the window still has the timings just before and after it.
            window = self.references[lo:hi] or self.references[max(0, lo - 1) : lo + 1]
            out.append((kind, wall * REFERENCE_NOMINAL_S / _trimmed_mean(window)))
        return out


def _trimmed_mean(references: list[tuple[float, float]]) -> float:
    times = sorted(r for _, r in references)
    cut = len(times) // 5
    kept = times[cut : len(times) - cut]
    return sum(kept) / len(kept)


def ledger_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# --- CLI plumbing ----------------------------------------------------------------------


class Cli:
    """Runs cloudledger commands as child processes and checks their answers."""

    def __init__(self, root: Path, work: Path, rec: Recorder) -> None:
        self.work = work
        self.rec = rec
        src = str(root / "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
        self.spans_file = work / "spans.jsonl"
        self.runner = str(Path(__file__).resolve().parent / "cli_runner.py")
        self.out = work / "stdout"
        self.err = work / "stderr"

    def run(self, ledger: Path, step: Step, request: str, totals: Optional[dict]) -> tuple[int, str, float]:
        """Run one step; returns (exit code, first stdout line, wall seconds).

        With ``totals`` the command runs under the tracing runner and its
        spans are merged into ``totals``.
        """
        argv = ["--ledger-dir", str(ledger), *step.argv]
        if step.payload is not None:
            path = self.work / "payload.bin"
            path.write_bytes(step.payload)
            argv.append(str(path))
        if totals is None:
            cmd = [sys.executable, "-m", "cloudledger", *argv]
        else:
            cmd = [sys.executable, self.runner, str(self.spans_file), request, *argv]
            offset = self.spans_file.stat().st_size if self.spans_file.exists() else 0
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        self.rec.peak_rss_kb = max(self.rec.peak_rss_kb, usage.ru_maxrss)
        lines = self.out.read_text(encoding="utf-8", errors="replace").splitlines()
        first = lines[0] if lines else ""
        ok = step.matches(code, first)
        err = "" if ok else self.err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        self.rec.check(ok, f"{' '.join(step.argv)}: expected exit {step.exit_code}"
                           f" {step.first_line!r}, got exit {code} {first!r} {err!r}")
        if totals is not None:
            self._collect(offset, step, wall, totals)
        return code, first, wall

    def _collect(self, offset: int, step: Step, wall: float, totals: dict) -> None:
        with open(self.spans_file, encoding="utf-8") as fh:
            fh.seek(offset)
            records = [json.loads(line) for line in fh if line.strip()]
        self.rec.check(len(records) == 1, f"{' '.join(step.argv)}: expected one span record,"
                                          f" got {len(records)}")
        for record in records:
            spans = record["spans"]
            tracing.merge(totals, spans)
            run = spans.get("cli.run", {"total_s": 0.0, "bytes_written": 0})
            tracing.merge(totals, {
                f"cli.{_subcommand(step.argv)}": {"s": run["total_s"], "bytes_written": run.get("bytes_written", 0)},
                "cli": {"startup_s": wall - run["total_s"]},
            })


_COMMANDS = ("upload", "verify", "append", "update", "delete", "tamper", "recover", "audit", "report")


def _subcommand(argv: tuple[str, ...]) -> str:
    return next(a for a in argv if a in _COMMANDS)


@dataclass
class Context:
    """What a workload needs while it runs."""

    cli: Cli
    rec: Recorder
    tracer: tracing.Tracer  # installed only around traced in-process instances


# --- workloads ------------------------------------------------------------------------------


class CliSession:
    """Upload, then a seeded script of verified mutations, audits and fault cycles."""

    in_process = False

    def __init__(self, spec: CliSpec, seed: int) -> None:
        rng = random.Random(seed)
        payload = rng.randbytes(spec.payload_bytes)
        config_seed = rng.randrange(1 << 31)
        store = Store(payload, spec.servers, spec.block_size)
        self.upload = model.upload_step(store, config_seed, payload)
        # Every fault kind twice, as two back-to-back cycles at six points, so
        # recoveries come in pairs of like cost as the ledger grows.
        cycles = FAULT_KINDS * 2
        fault_at = {round((p + 1) * spec.epochs * 2 / len(cycles)): cycles[p * 2 : p * 2 + 2]
                    for p in range(len(cycles) // 2)}
        audit_at = [round((i + 1) * spec.epochs / spec.audits) for i in range(spec.audits)]
        self.steps: list[Step] = []
        for n, kind in enumerate(model.op_kinds(rng, spec.epochs), 1):
            op = store.next_op(rng, kind, spec.append_bytes)
            self.steps += [model.op_step(op), model.verify_step(store)]
            if n in audit_at:
                self.steps += [model.audit_step(store, 0, store.epoch, mode)
                               for mode in ("checksum", "weight-only")]
            for kind in fault_at.get(n, ()):
                self.steps += model.fault_cycle(store, store.next_fault(rng, kind))
        self.store = store

    def setup(self, ctx: Context, name: str, totals: Optional[dict]) -> Path:
        ledger = ctx.cli.work / f"ledger-{name}"
        ctx.cli.run(ledger, self.upload, f"{name}.setup", totals)
        return ledger

    def session(self, ctx: Context, ledger: Path, name: str, totals: Optional[dict]) -> None:
        ctx.rec.reference()
        for n, step in enumerate(self.steps):
            _, _, wall = ctx.cli.run(ledger, step, f"{name}.{n}", totals)
            ctx.rec.timed(step.kind, wall)

    def ledger_dir(self, ctx: Context, ledger: Path) -> Path:
        return ledger


class CliReadback:
    """Read commands against a ledger the set-up built; probes run on copies."""

    in_process = False

    def __init__(self, spec: ReadbackSpec, seed: int) -> None:
        rng = random.Random(seed)
        payload = rng.randbytes(spec.payload_bytes)
        config_seed = rng.randrange(1 << 31)
        store = Store(payload, spec.servers, spec.block_size)
        self.build = [model.upload_step(store, config_seed, payload)]
        for kind in model.op_kinds(rng, spec.epochs):
            self.build.append(model.op_step(store.next_op(rng, kind, spec.append_bytes)))
        e = store.epoch
        reads = [
            model.verify_step(store),
            model.audit_step(store, 0, e, "checksum"),
            model.verify_step(store, report=True),
            model.verify_step(store),
            model.audit_step(store, e // 2, e, "weight-only"),
            model.verify_step(store, report=True),
            model.report_step(store, config_seed),
        ]
        self.rounds: list[tuple[list[Step], list[Step]]] = []
        for r, kind in enumerate(model.op_kinds(rng, spec.rounds)):
            probe = store.copy()
            op = model.op_step(probe.next_op(rng, kind, spec.append_bytes))
            fault = probe.next_fault(rng, FAULT_KINDS[r % len(FAULT_KINDS)])
            self.rounds.append((reads, [op, *model.fault_cycle(probe, fault)]))
        self.store = store

    def setup(self, ctx: Context, name: str, totals: Optional[dict]) -> Path:
        ledger = ctx.cli.work / f"ledger-{name}"
        for n, step in enumerate(self.build):
            ctx.cli.run(ledger, step, f"{name}.setup{n}", totals)
        return ledger

    def session(self, ctx: Context, ledger: Path, name: str, totals: Optional[dict]) -> None:
        before = ledger_digest(ledger)
        probe_dir = ctx.cli.work / f"probe-{name}"
        ctx.rec.reference()
        for r, (reads, probes) in enumerate(self.rounds):
            for n, step in enumerate(reads):
                _, _, wall = ctx.cli.run(ledger, step, f"{name}.{r}.{n}", totals)
                ctx.rec.timed(step.kind, wall)
            shutil.copytree(ledger, probe_dir)
            for n, step in enumerate(probes):
                _, _, wall = ctx.cli.run(probe_dir, step, f"{name}.{r}.probe{n}", totals)
                ctx.rec.timed(step.kind, wall)
            shutil.rmtree(probe_dir)
        ctx.rec.check(ledger_digest(ledger) == before, f"{name}: read commands changed the ledger")

    def ledger_dir(self, ctx: Context, ledger: Path) -> Path:
        return ledger


@dataclass
class LibState:
    cluster: object
    ledger: object


class LibChurn:
    """In-process loops over an in-memory ledger with many small blocks."""

    in_process = True

    def __init__(self, spec: LibSpec, seed: int) -> None:
        rng = random.Random(seed)
        self.spec = spec
        self.payload = rng.randbytes(spec.payload_bytes)
        self.cluster_seed = rng.randrange(1 << 31)
        store = Store(self.payload, spec.servers, spec.block_size)
        self.loops = []
        for n, kind in enumerate(model.op_kinds(rng, spec.loops)):
            op = store.next_op(rng, kind, spec.append_bytes)
            fault = store.next_fault(rng, FAULT_KINDS[n % len(FAULT_KINDS)])
            caught = {mode: store.caught(fault.kind, mode) for mode in ("weight-only", "checksum")}
            audit = None
            if n % LIB_AUDIT_EVERY == LIB_AUDIT_EVERY - 1:
                first = max(0, store.epoch - 3)
                counts = [store.audit_divergences(e, "checksum") for e in range(first, store.epoch + 1)]
                audit = (first, store.epoch, counts)
            self.loops.append((op, fault, caught, audit))
        self.store = store

    def setup(self, ctx: Context, name: str, totals: Optional[dict]) -> LibState:
        import cloudledger as cl

        ctx.tracer.request = f"{name}.setup"
        cluster = cl.new_cluster(self.spec.servers, rng_seed=self.cluster_seed)
        verdict = cl.round_trip_verify(cluster, self.payload, self.spec.servers, self.spec.block_size,
                                       cl.Mode.CHECKSUM)
        ledger = cl.Ledger()
        cl.commit_restore_point(ledger, cluster, verdict)
        ctx.tracer.request = "-"
        ctx.rec.check(verdict.z, f"{name}: initial upload did not verify")
        return LibState(cluster, ledger)

    def session(self, ctx: Context, state: LibState, name: str, totals: Optional[dict]) -> None:
        import cloudledger as cl

        rec, cluster, ledger = ctx.rec, state.cluster, state.ledger
        clock = time.perf_counter
        rec.reference()
        for n, (op, fault, caught, audit) in enumerate(self.loops):
            where = f"{name} loop {n}"
            ctx.tracer.request = f"{name}.{n}"
            try:
                request = cl.OperationRequest(
                    kind=cl.OperationKind(op.kind.upper()),
                    server_index=op.server,
                    block_id=None if op.kind == "append" else op.block,
                    payload=op.payload,
                    epoch_expected=cluster.epoch,
                )
                start = clock()
                result = cl.apply(cluster, ledger, request)
                rec.timed("op", clock() - start)
                rec.check(
                    (result.new_epoch, result.block_id, result.delta, result.s_after)
                    == (op.epoch, op.block, op.delta, op.s_after),
                    f"{where}: {op.kind} returned {result}",
                )

                start = clock()
                verdict = cl.verify_equality(ledger.last().manifest, cl.read_manifest(cluster), cl.Mode.CHECKSUM)
                rec.timed("verify", clock() - start)
                rec.check(verdict.z, f"{where}: clean state failed verification")

                spec = cl.FaultSpec(cl.FaultKind(fault.kind), fault.server, fault.block, fault.seed)
                start = clock()
                cl.inject_fault(cluster, spec)
                rec.timed("fault", clock() - start)

                start = clock()
                live = cl.read_manifest(cluster)
                stored = ledger.last().manifest
                seen = {mode: not cl.verify_equality(stored, live, cl.Mode(mode)).z for mode in caught}
                rec.timed("check", clock() - start)
                rec.check(seen == caught, f"{where}: {fault.kind} detection {seen}, README table says {caught}")

                start = clock()
                report = cl.recover(ledger, cluster)
                rec.timed("recover", clock() - start)
                rec.check((report.action.value, report.epoch) == ("RESTORED", op.epoch),
                          f"{where}: recover after {fault.kind} returned {report}")

                if audit is not None:
                    first, last, counts = audit
                    grant = cl.AuditGrant(first, last, cl.Mode.CHECKSUM)
                    start = clock()
                    verdicts = cl.audit(ledger, cluster, grant)
                    rec.timed("audit", clock() - start)
                    found = [len(v.divergences) for v in verdicts]
                    rec.check(found == counts, f"{where}: audit {first}..{last} gave {found}, expected {counts}")
            except Exception as exc:  # an unexpected error ends the session as a failure
                rec.check(False, f"{where}: {type(exc).__name__}: {exc}")
                break
        ctx.tracer.request = "-"
        rec.peak_rss_kb = max(rec.peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def ledger_dir(self, ctx: Context, state: LibState) -> Path:
        """Write the in-memory points through the program's own persistence path.

        Called with no tracer installed, so the writes add no spans.
        """
        from cloudledger.ledger import _persist_point

        directory = ctx.cli.work / "persisted"
        shutil.rmtree(directory, ignore_errors=True)
        for point in state.ledger.points:
            _persist_point(directory, point)
        return directory


WORKLOADS = {"cli-session": CliSession, "cli-readback": CliReadback, "lib-churn": LibChurn}
