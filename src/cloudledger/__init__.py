"""Deterministic multi-server cloud-storage integrity simulator.

Payloads are split into blocks, placed round-robin across simulated
servers, and tracked through manifests of per-block (weight, checksum)
records. The reading protocol compares client-side and cloud-side
manifests before and after every change; each verified change commits a
restore point (its manifest, from which the aggregate X derives, and the
redo record of the change) that crash recovery rewinds to; snapshots name
blocks by content digest, and each distinct block is stored once. A fault-injection harness exercises detection
coverage, including the weight-only mode whose same-size substitution
blind spot the checksum mode closes.
"""

from .audit import AuditGrant, audit
from .checksum import checksum_hex, fnv1a64, fnv1a64_many
from .cluster import (
    ClusterState,
    FaultKind,
    FaultReport,
    FaultSpec,
    ServerState,
    inject_fault,
    load_snapshot,
    new_cluster,
    partition_upload,
    read_manifest,
    snapshot_cluster,
    upload,
)
from .errors import (
    CloudLedgerError,
    EpochMismatch,
    NoSuchTarget,
    NothingToRestore,
    PostStateCorrupt,
    PreexistingData,
    PreStateCorrupt,
    ServerDown,
    SnapshotCorrupt,
    UnverifiedState,
)
from .ledger import (
    Ledger,
    RecoveryAction,
    RecoveryReport,
    RestorePoint,
    commit_restore_point,
    load_ledger,
    recover,
)
from .manifest import (
    BlockRecord,
    DataBlock,
    Level,
    Manifest,
    build_manifest,
    make_block,
    make_blocks,
    parse_manifest,
    serialize_manifest,
)
from .ops import (
    OperationKind,
    OperationRequest,
    OperationResult,
    append,
    apply,
    delete,
    render_journal_line,
    update,
)
from .protocol import (
    Divergence,
    DivergenceKind,
    Mode,
    Verdict,
    render_verdict_report,
    round_trip_verify,
    user_level_manifest,
    verify_equality,
)
from .rng import XorShift64Star, generate_payload

__version__ = "0.1.0"
