"""Exception types raised across the simulator.

Every error deliberately derives from CloudLedgerError so callers (and the
CLI exit-code table) can distinguish simulator outcomes from programming
bugs.
"""


class CloudLedgerError(Exception):
    """Base class for all errors raised by this package."""


class ServerDown(CloudLedgerError):
    """A write targeted a server whose alive flag is False."""


class NoSuchTarget(CloudLedgerError):
    """A fault injection named a server or block that does not exist."""


class NoSuchBlock(CloudLedgerError):
    """A dynamic operation named a block that does not exist."""


class EpochMismatch(CloudLedgerError):
    """Two manifests (or a verdict and a cluster) disagree about the epoch."""


class PreexistingData(CloudLedgerError):
    """Initial upload attempted onto storage that already holds data."""


class UnverifiedState(CloudLedgerError):
    """A restore-point commit was attempted with a failing verdict."""


class NothingToRestore(CloudLedgerError):
    """Recovery or a dynamic operation requires at least one committed restore point."""


class SnapshotCorrupt(CloudLedgerError):
    """A ledger file failed to load: an epoch file failed its chain line or
    is no redo record the epoch before allows, cluster.state holds a line
    that is no HEAD or fault line or a fault its point refuses, a file is
    in a retired format, or a snapshot failed its own manifest consistency
    check or named a block the store lacks."""


class StaleEpoch(CloudLedgerError):
    """An operation request carried an epoch that is no longer current."""


class EmptyGrant(CloudLedgerError):
    """An audit grant covers no committed epoch."""


class ManifestFormatError(CloudLedgerError):
    """A serialized manifest, the set of epoch files, or a block entry in a ledger file failed to parse."""


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
