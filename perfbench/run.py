"""Run one cloudledger benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``); it uses the cloudledger sources found there and keeps
its scratch files under ``.perfbench_work/``. It prints one line per metric
with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``. It exits 1 when any check failed and 2 when the checkout
cannot be benchmarked. See perfbench/BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import (FULL, NOMINAL_SECONDS, SETUPS, WORKLOADS, Cli, Context, Recorder, directory_bytes,
                       ledger_digest)

ALL = frozenset(WORKLOADS)
CLI = frozenset({"cli-session", "cli-readback"})

# Spans that must record calls on a workload (checked on every traced run),
# and the ones that must stay at zero there.
RUNS_ON = {
    "checksum.fnv1a64": ALL,
    "manifest.make_block": ALL,
    "manifest.build_manifest": ALL,
    "manifest.serialize_manifest": ALL,
    "manifest.parse_manifest": ALL,
    "cluster.partition_upload": ALL,
    "cluster.read_manifest": ALL,
    "cluster.inject_fault": ALL,
    "cluster.snapshot_cluster": ALL,
    "cluster.load_snapshot": ALL,
    "protocol.verify_equality": ALL,
    "protocol.round_trip_verify": ALL,
    "ledger.commit_restore_point": ALL,
    "ledger.recover": ALL,
    "ledger.rewrite_cluster_from_point": ALL,
    "ops.apply": ALL,
    "audit.audit": ALL,
    "ledger.load_ledger": CLI,
    "cli.run": CLI,
}
ZERO_ON = {"ledger.load_ledger": ALL - CLI, "cli.run": ALL - CLI}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with at least ten samples above it.

    Below 21 samples that sample would lie under the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def commands_per_s(timings: list[tuple[str, float]]) -> float:
    commands = [seconds for kind, seconds in timings if kind != "setup"]
    return len(commands) / sum(commands)


def end_to_end(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, note)."""
    timings = rec.at_reference_speed()
    samples: dict[str, list[float]] = {}
    for kind, seconds in timings:
        samples.setdefault(kind, []).append(seconds)
    walls: dict[str, list[float]] = {}
    for _, kind, wall in rec.events:
        walls.setdefault(kind, []).append(wall)
    setups = samples["setup"]
    out = {"setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups")}
    for kind in ("op", "verify", "audit", "recover"):
        ms = [seconds * 1000.0 for seconds in samples[kind]]
        wall = statistics.median(walls[kind]) * 1000.0
        out[f"{kind}_ms_p50"] = (statistics.median(ms), f"n={len(ms)}, raw wall p50 {wall:.1f} ms")
        value, percentile = tail(ms)
        out[f"{kind}_ms_tail"] = (value, f"p{percentile:.1f} of n={len(ms)}")
    rate = commands_per_s(timings)
    out["commands_per_s"] = (rate, f"{len(timings) - len(setups)} commands")
    out["ledger_bytes_per_user_byte"] = (rec.ledger_ratio, "at the end of the session")
    out["peak_rss_mb"] = (rec.peak_rss_kb / 1024.0, "ru_maxrss")
    return out


def per_layer(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-session layer figures, averaged over the traced instances."""
    runs = len(rec.layer_totals)
    means: dict[str, float] = {}
    for totals in rec.layer_totals:
        for name, entry in totals.items():
            for stat, value in entry.items():
                key = f"{name}.{stat}"
                means[key] = means.get(key, 0.0) + value / runs
    fnv_s = means.get("checksum.fnv1a64.self_s", 0.0)
    means["checksum.fnv1a64.mb_per_s"] = means.get("checksum.fnv1a64.bytes", 0.0) / fnv_s / 1e6 if fnv_s else 0.0
    traced = statistics.mean(rec.commands_per_s["traced"])
    means["trace.overhead_commands_per_s"] = traced - statistics.mean(rec.commands_per_s["untraced"])
    return {key: (value, f"per session, mean of {runs} traced") for key, value in means.items()}


def after_session(workload, ctx: Context, state) -> str:
    """Record the ledger's bytes per live user byte; return the ledger's digest."""
    directory = workload.ledger_dir(ctx, state)
    ctx.rec.ledger_ratio = directory_bytes(directory) / workload.store.total()
    return ledger_digest(directory)


def execute(name: str, seed: int, seconds: float, trace: bool, spec, root: Path, work: Path) -> Recorder:
    rec = Recorder()
    ctx = Context(Cli(root, work, rec), rec, tracing.Tracer())
    workload = WORKLOADS[name](spec, seed)
    if not trace:
        # Set-ups are spread between the sessions, so that their median
        # samples the same stretch of machine time as the sessions do.
        reps = max(1, round(seconds / NOMINAL_SECONDS))
        setups = []
        for i in range(max(SETUPS, reps)):
            rec.reference()
            start = time.perf_counter()
            state = workload.setup(ctx, f"s{i}", None)
            rec.timed("setup", time.perf_counter() - start)
            setups.append(ledger_digest(workload.ledger_dir(ctx, state)))
            if i < reps:
                workload.session(ctx, state, f"r{i}", None)
                rec.digests.append(after_session(workload, ctx, state))
        rec.check(len(set(setups)) == 1, f"set-ups of one seed gave {len(set(setups))} different ledgers")
        return rec

    # One untraced instance (set-up plus session), then two traced ones.
    for i, traced in enumerate((False, True, True)):
        totals = {} if traced else None
        if traced and workload.in_process:
            ctx.tracer.spans.clear()
            ctx.tracer.install()
        try:
            state = workload.setup(ctx, f"t{i}", totals)
            first_event = len(rec.events)
            workload.session(ctx, state, f"t{i}", totals)
        finally:
            if traced and workload.in_process:
                ctx.tracer.uninstall()
                ctx.tracer.write(ctx.cli.spans_file)
                for spans in ctx.tracer.by_request().values():
                    tracing.merge(totals, spans)
        rate = commands_per_s(rec.at_reference_speed(first_event))
        rec.commands_per_s["traced" if traced else "untraced"].append(rate)
        rec.digests.append(after_session(workload, ctx, state))
        if traced:
            rec.layer_totals.append(totals)
    rec.check(len(set(rec.digests)) == 1, "tracing changed the ledger: digests " + " ".join(
        d[:12] for d in rec.digests))
    first, second = (tracing.exact_counters(t) for t in rec.layer_totals)
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    rec.check(not differing, f"exact counters differ between traced runs: {differing[:8]}")
    for totals in rec.layer_totals:
        for span, workloads in RUNS_ON.items():
            calls = totals.get(span, {}).get("calls", 0)
            rec.check(name not in workloads or calls > 0, f"{span} recorded no calls on {name}")
        for span, workloads in ZERO_ON.items():
            calls = totals.get(span, {}).get("calls", 0)
            rec.check(name not in workloads or calls == 0, f"{span} recorded {calls} calls on {name}")
    return rec


def main(argv=None, specs=FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cloudledger" / "__init__.py").is_file():
        print(f"error: {root} holds no cloudledger sources (src/cloudledger)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rec = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                      specs[args.workload], root, work)
        if args.trace and (work / "spans.jsonl").exists():
            kept = work.parent / f"trace-{args.workload}-{args.seed}.jsonl"
            (work / "spans.jsonl").replace(kept)
    finally:
        shutil.rmtree(work)

    figures = per_layer(rec) if args.trace else end_to_end(rec)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    metrics = {}
    for metric in wanted:
        # A per-layer span that never ran on this workload reads zero.
        value, note = figures[metric["name"]] if not args.trace else figures.get(metric["name"], (0, "no calls"))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>16.6f} {metric['unit']:<6} {note}")
    print(f"  {'failed_ratio':<40} {len(rec.failures) / rec.attempted:>16.6f} "
          f"{len(rec.failures)}/{rec.attempted} checks failed")
    print(f"  ledger digest {rec.digests[0] if rec.digests else '-'}")
    if args.trace:
        rate = figures["checksum.fnv1a64.mb_per_s"][0]
        print(f"  hashing rate {rate:.2f} MB/s (ROADMAP re-anchor: ~7.5 MB/s untraced)")
    for failure in rec.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": metrics,
    }))
    return 1 if rec.failures else 0


if __name__ == "__main__":
    sys.exit(main())
