"""Span recorder that wraps cloudledger's public functions from outside.

Every public function defined in a layer module is replaced by a wrapper
that times the call, subtracts the time its child spans cover (self time)
and records a few exact work counters. ``from .x import y`` copies the
binding into the importing module, so a wrapper is installed under every
name, in every loaded cloudledger module, that refers to the original
function object: a call through ``cluster.fnv1a64`` or ``cli.load_ledger``
is recorded like a call through its home module.

Spans are folded into per-request, per-function aggregates as they close,
so the per-block spans (fnv1a64, make_block) cost no memory per call.
Every span recorded while ``request`` holds an id belongs to that request:
one CLI command, or one library loop.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("checksum", "rng", "manifest", "cluster", "protocol", "ledger", "ops", "audit", "cli")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Exact work counters recorded beside calls and times, by span name.
COUNTERS = {
    "checksum.fnv1a64": lambda a, k, r: {"bytes": len(_arg(a, k, 0, "payload"))},
    "ledger.load_ledger": lambda a, k, r: {"epochs": len(r.points)},
    "cluster.load_snapshot": lambda a, k, r: {"bytes_in": len(_arg(a, k, 0, "text"))},
    "cluster.snapshot_cluster": lambda a, k, r: {"bytes_out": len(r)},
    "cluster.read_manifest": lambda a, k, r: {"records": len(r.records)},
    "protocol.verify_equality": lambda a, k, r: {
        "records": len(_arg(a, k, 0, "user").records) + len(_arg(a, k, 1, "cloud").records)
    },
    "audit.audit": lambda a, k, r: {"epochs": len(r)},
}

# Spans that also record the process's written bytes (/proc/self/io wchar).
WCHAR_SPANS = frozenset({"ledger.commit_restore_point", "cli.run"})

EXACT_STATS = ("calls", "bytes", "bytes_in", "bytes_out", "records", "epochs", "bytes_written")


def read_wchar() -> int:
    """Bytes this process has passed to write calls so far (0 if unknown)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Install wrappers, collect per-request aggregates, restore on uninstall."""

    def __init__(self) -> None:
        self.request = "-"
        # (request, span name) -> {"calls", "total_s", "self_s", counters...}
        self.spans: dict[tuple[str, str], dict[str, float]] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cloudledger.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name in sorted(sys.modules):
            if name != "cloudledger" and not name.startswith("cloudledger."):
                continue
            module = sys.modules[name]
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        wchar = name in WCHAR_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            written = read_wchar() if wchar else 0
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                duration = clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                counts = counter(args, kwargs, result) if done and counter else {}
                if wchar:
                    counts["bytes_written"] = read_wchar() - written
                self._add(name, duration, duration - frame[0], counts)

        return traced

    def _add(self, name, total, self_time, counts) -> None:
        entry = self.spans.get((self.request, name))
        if entry is None:
            entry = self.spans[(self.request, name)] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        entry["calls"] += 1
        entry["total_s"] += total
        entry["self_s"] += self_time
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value

    def by_request(self) -> dict[str, dict[str, dict[str, float]]]:
        out: dict[str, dict[str, dict[str, float]]] = {}
        for (request, name), entry in self.spans.items():
            out.setdefault(request, {})[name] = entry
        return out

    def write(self, path) -> None:
        """Write one JSON line per request: {"id": ..., "spans": {name: stats}}."""
        with open(path, "a", encoding="utf-8") as fh:
            for request, spans in self.by_request().items():
                fh.write(json.dumps({"id": request, "spans": spans}, sort_keys=True) + "\n")


def merge(into: dict[str, dict[str, float]], spans: dict[str, dict[str, float]]) -> None:
    """Add one request's span aggregates into a running per-name total."""
    for name, entry in spans.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value


def exact_counters(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The counters that must repeat exactly between runs of one seed."""
    return {
        f"{name}.{stat}": value
        for name, entry in totals.items()
        for stat, value in entry.items()
        if stat in EXACT_STATS
    }
