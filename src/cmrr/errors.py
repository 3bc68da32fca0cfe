"""Exception hierarchy for the record/replay runtime."""


class CmrrError(Exception):
    """Base class for all library errors."""


class TraceFormatError(CmrrError):
    """Trace bytes violate the on-disk format: bad magic, unsupported
    version, bad framing, or an unregistered event tag; or an event being
    recorded has no 9-octet encoding."""


class ReplayError(CmrrError):
    """Base for errors meaning a replayed execution diverged from its trace."""


class ReplayTypeMismatch(ReplayError):
    """The next trace event has a different type (or payload) than the
    operation the program is about to perform."""


class ReplayQueueExhausted(ReplayError):
    """The program performed more recordable operations than the trace holds."""


class ReplayDeadlock(ReplayError):
    """No activity made progress for the configured watchdog interval while
    at least one was blocked waiting for a recorded state."""


class ReplayLeftoverEvents(ReplayError):
    """Execution finished but one or more replay queues still hold events."""


class NotAnActivity(CmrrError):
    """An operation that needs a current activity was called from
    unmanaged code."""


class NotOwner(CmrrError):
    """A lock or condition operation was attempted without holding the lock."""


class AlreadyResolved(CmrrError):
    """A promise was resolved a second time."""


class UsageError(CmrrError):
    """A library API was used outside its documented contract."""


class TransactionUsageError(UsageError):
    """Transactions are flat; nesting or misuse of transactional cells."""


class ExecutionAborted(CmrrError):
    """Internal: raised in activities blocked while another activity already
    failed, so the whole execution can unwind."""
