"""Exception types raised across the simulator.

Every error deliberately derives from CloudLedgerError so callers (and the
CLI exit-code table) can distinguish simulator outcomes from programming
bugs.
"""


class CloudLedgerError(Exception):
    """Base class for all errors raised by this package."""


class ServerDown(CloudLedgerError):
    """A write targeted a server that a listed crash names."""


class NoSuchTarget(CloudLedgerError):
    """A fault injection or a dynamic operation named a server or block
    that does not exist, an append named another id than the server's
    next, or an audit grant covers no committed epoch."""


class EpochMismatch(CloudLedgerError):
    """Two manifests (or a verdict and a cluster) disagree about the epoch,
    or an operation request carried an epoch that is no longer current."""


class PreexistingData(CloudLedgerError):
    """Initial upload attempted onto storage that already holds data."""


class UnverifiedState(CloudLedgerError):
    """A restore-point commit was attempted with a failing verdict."""


class NothingToRestore(CloudLedgerError):
    """Recovery or a dynamic operation requires at least one committed restore point."""


class SnapshotCorrupt(CloudLedgerError):
    """A ledger file or a serialized manifest failed to load: the epoch
    files are not exactly 0.snapshot up to the last, an epoch file failed
    its chain line or is no redo record the epoch before allows, a block
    entry is cut short, stores a block the ledger already stores or names
    one the store lacks, cluster.state holds a line that is no HEAD or
    fault line or a fault its point refuses, a file is in a retired
    format, or a manifest failed to parse or its own consistency check."""


class PreStateCorrupt(CloudLedgerError):
    """Pre-operation verification against the last restore point failed.

    Carries the failing verdict; the cluster was not mutated.
    """

    def __init__(self, message: str, verdict) -> None:
        super().__init__(message)
        self.verdict = verdict


class PostStateCorrupt(CloudLedgerError):
    """Post-operation verification failed; the cluster was rolled back.

    Carries the failing verdict observed before the rollback.
    """

    def __init__(self, message: str, verdict) -> None:
        super().__init__(message)
        self.verdict = verdict
