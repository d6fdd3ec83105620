"""Seeded inputs and the expected outcome of every scripted step.

``Store`` mirrors what cloudledger keeps: the payload of every block, the
records committed at each epoch, and the placement rule of an upload. From
it the benchmark predicts the exit code and first output line of every CLI
command and the verdict of every library call, so each run checks the
program's answers, not just its speed. Inputs come from ``random.Random``
seeded by the workload seed, so they do not depend on the program's own
generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

FAULT_KINDS = ("flip-byte", "same-weight", "truncate", "drop-block", "crash", "stale-manifest")

# README fault-kinds table: what the weight-only mode misses. The checksum
# mode catches all six; stale-manifest is caught by weight-only only when
# the last committed operation changed a weight (see Store.weight_changed).
WEIGHT_ONLY_MISSES = frozenset({"flip-byte", "same-weight"})

# Mutating operations in the ratio append:update:delete = 6:3:1.
OP_SHARES = (("append", 0.6), ("update", 0.3))

Key = tuple[int, int]


@dataclass(frozen=True)
class Step:
    """One scripted CLI command and what it must print and return."""

    kind: str  # sample class: upload, op, verify, audit, tamper, recover, report
    argv: tuple[str, ...]
    exit_code: int
    first_line: str
    prefix: bool = False  # first_line is a prefix (tamper notes carry fault details)
    payload: Optional[bytes] = None  # written to a file whose path ends argv

    def matches(self, exit_code: int, first_line: str) -> bool:
        if exit_code != self.exit_code:
            return False
        if self.prefix:
            return first_line.startswith(self.first_line)
        return first_line == self.first_line


@dataclass(frozen=True)
class Op:
    """One mutating operation with the journal fields it must produce."""

    kind: str  # append, update, delete
    server: int
    block: int
    payload: Optional[bytes]
    epoch: int  # the epoch it commits
    delta: int
    s_after: int

    def journal_line(self) -> str:
        return (
            f"{self.epoch} {self.kind.upper()} server={self.server} block={self.block}"
            f" delta={self.delta:+d} s_after={self.s_after} z_pre=true z_post=true"
        )


@dataclass(frozen=True)
class Fault:
    kind: str
    server: int
    block: Optional[int]
    seed: int


class Store:
    """What the cluster should hold, and what each epoch committed."""

    def __init__(self, payload: bytes, servers: int, block_size: int) -> None:
        self.servers = servers
        self.block_size = block_size
        self.blocks: dict[Key, bytes] = {}
        for k in range(0, len(payload), block_size):
            index = k // block_size
            self.blocks[(index % servers, index // servers)] = payload[k : k + block_size]
        self.history: list[dict[Key, bytes]] = [dict(self.blocks)]

    @property
    def epoch(self) -> int:
        return len(self.history) - 1

    def total(self) -> int:
        return sum(len(p) for p in self.blocks.values())

    def keys_on(self, server: int) -> list[Key]:
        return sorted(k for k in self.blocks if k[0] == server)

    def copy(self) -> Store:
        clone = object.__new__(Store)
        clone.servers, clone.block_size = self.servers, self.block_size
        clone.blocks, clone.history = dict(self.blocks), list(self.history)
        return clone

    # --- scripted mutations -------------------------------------------------

    def next_op(self, rng: random.Random, kind: str, append_bytes: tuple[int, int]) -> Op:
        """Pick a seeded target and payload for ``kind``, apply and commit it."""
        before = self.total()
        if kind == "append":
            server = rng.randrange(self.servers)
            block = max((k[1] for k in self.keys_on(server)), default=-1) + 1
            payload = rng.randbytes(rng.randint(*append_bytes))
            self.blocks[(server, block)] = payload
        elif kind == "update":
            server, block = rng.choice(sorted(k for k, p in self.blocks.items() if p))
            old = self.blocks[(server, block)]
            size = len(old)
            if rng.random() < 0.5:
                while size == len(old):
                    size = rng.randint(max(1, self.block_size // 2), self.block_size)
            payload = rng.randbytes(size)
            while payload == old:  # an identical update would hide a stale manifest
                payload = rng.randbytes(size)
            self.blocks[(server, block)] = payload
        else:
            candidates = [k for k in sorted(self.blocks) if len(self.keys_on(k[0])) > 2]
            server, block = rng.choice(candidates)
            payload = None
            del self.blocks[(server, block)]
        self.history.append(dict(self.blocks))
        after = self.total()
        return Op(kind, server, block, payload, self.epoch, after - before, after)

    def next_fault(self, rng: random.Random, kind: str) -> Fault:
        seed = rng.randrange(1 << 30)
        if kind in ("crash", "stale-manifest"):
            return Fault(kind, rng.randrange(self.servers), None, seed)
        server, block = rng.choice(sorted(k for k, p in self.blocks.items() if p))
        return Fault(kind, server, block, seed)

    # --- expected verdicts --------------------------------------------------

    def weight_changed(self) -> bool:
        """Did the last committed epoch change any record's weight or key set?"""
        if self.epoch == 0:
            return False
        now, before = self.history[-1], self.history[-2]
        return now.keys() != before.keys() or any(len(now[k]) != len(before[k]) for k in now)

    def caught(self, fault: str, mode: str) -> bool:
        """README fault-kinds table, with stale-manifest derived from the script."""
        if mode == "checksum":
            return True
        if fault == "stale-manifest":
            return self.weight_changed()
        return fault not in WEIGHT_ONLY_MISSES

    def fault_divergences(self, fault: Fault) -> int:
        """Divergences a checksum-mode verify reports right after ``fault``."""
        if fault.kind == "crash":
            return len(self.keys_on(fault.server))
        return 1  # one block, or the one record the last operation changed

    def audit_divergences(self, epoch: int, mode: str) -> int:
        """Divergences of the epoch's committed records from what is live now."""
        count = 0
        for key, committed in self.history[epoch].items():
            live = self.blocks.get(key)
            if live is None or len(live) != len(committed):
                count += 1
            elif mode == "checksum" and live != committed:
                count += 1
        return count


def op_kinds(rng: random.Random, count: int) -> list[str]:
    """``count`` operation kinds in a seeded order; how many of each is fixed."""
    kinds: list[str] = []
    for kind, share in OP_SHARES:
        kinds += [kind] * round(count * share)
    kinds += ["delete"] * (count - len(kinds))
    rng.shuffle(kinds)
    return kinds


# --- CLI steps -------------------------------------------------------------------


def upload_step(store: Store, config_seed: int, payload: bytes) -> Step:
    return Step(
        "upload",
        ("--servers", str(store.servers), "--block-size", str(store.block_size),
         "--seed", str(config_seed), "upload"),
        0,
        f"UPLOAD bytes={len(payload)} servers={store.servers} block_size={store.block_size}"
        f" mode=checksum seed={config_seed}",
        payload=payload,
    )


def op_step(op: Op) -> Step:
    argv: tuple[str, ...] = (op.kind, "--server", str(op.server))
    if op.kind != "append":
        argv += ("--block", str(op.block))
    return Step("op", argv, 0, op.journal_line(), payload=op.payload)


def verify_step(store: Store, divergences: int = 0, report: bool = False) -> Step:
    argv = ("verify", "--report") if report else ("verify",)
    z = "true" if divergences == 0 else "false"
    return Step(
        "verify", argv, 0 if divergences == 0 else 1,
        f"VERDICT z={z} mode=checksum epoch={store.epoch} divergences={divergences}",
    )


def audit_step(store: Store, first: int, last: int, mode: str) -> Step:
    counts = [store.audit_divergences(e, mode) for e in range(first, last + 1)]
    z = "true" if counts[0] == 0 else "false"
    return Step(
        "audit", ("audit", "--epochs", f"{first}..{last}", "--mode", mode),
        0 if not any(counts) else 1,
        f"TPA VERDICT z={z} mode={mode} epoch={first} divergences={counts[0]}",
    )


def fault_cycle(store: Store, fault: Fault) -> list[Step]:
    """tamper -> verify (exit 1) -> recover (RESTORED): the store is unchanged."""
    argv = ("tamper", "--kind", fault.kind, "--server", str(fault.server),
            "--fault-seed", str(fault.seed))
    if fault.block is not None:
        argv += ("--block", str(fault.block))
    block = "-" if fault.block is None else str(fault.block)
    return [
        Step("tamper", argv, 0, f"TAMPER {fault.kind} server={fault.server} block={block} note=",
             prefix=True),
        verify_step(store, store.fault_divergences(fault)),
        Step("recover", ("recover",), 0, f"RESTORED epoch={store.epoch}"),
    ]


def report_step(store: Store, config_seed: int) -> Step:
    return Step(
        "report", ("report",), 0,
        f"REPORT epoch={store.epoch} servers={store.servers} block_size={store.block_size}"
        f" mode=checksum seed={config_seed}",
    )
