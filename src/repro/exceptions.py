"""Exception hierarchy shared across the OpenEI reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch framework failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class ShapeError(ReproError):
    """A tensor or layer received data of an incompatible shape."""


class ModelSelectionError(ReproError):
    """The model selector could not find a model satisfying the constraints."""


class DeploymentError(ReproError):
    """OpenEI could not be deployed on the requested edge device."""


class SchedulingError(ReproError):
    """The edge runtime could not schedule or admit a task."""


class ResourceExhaustedError(SchedulingError):
    """A device ran out of memory, energy budget or compute capacity."""


class MigrationError(ReproError):
    """A computation-migration request could not be satisfied."""


class SerializationError(ReproError):
    """A model or dataset could not be serialized or deserialized."""


class APIError(ReproError):
    """A libei REST request was malformed or could not be dispatched."""


class ResourceNotFoundError(APIError):
    """A libei URL referenced an unknown algorithm, sensor or data range."""


class CollaborationError(ReproError):
    """A cloud-edge or edge-edge collaboration step failed."""


class BatchContractError(APIError):
    """A list handler broke its contract: one result per call (wrong result count)."""


class LockContractError(ReproError):
    """The runtime lock watcher detected a lock-order cycle or hold-budget
    violation (see :mod:`repro.analysis.lockwatch`)."""


class AnalysisError(ReproError):
    """A static model check failed: the shape/dtype walk in
    :mod:`repro.analysis.shapes` rejected an architecture at publish or
    deploy time.  The message names the offending layer index and
    carries that layer's own contract error."""


class IntegrityError(ReproError):
    """On-disk content failed verification: a blob's bytes no longer hash
    to its content address, or a journaled artifact is missing from the
    store.  Recovery must stop — serving silently-corrupted model bytes
    is worse than refusing to start."""


class WALError(ReproError):
    """The write-ahead log could not append or replay (e.g. the log was
    closed, or a record is unencodable)."""


class WALCorruptionError(WALError):
    """The write-ahead log is damaged *before* its tail: a checksummed
    record in the middle of the file fails verification, so everything
    after it would be silently lost.  A torn tail (an append cut short
    by a crash) is NOT corruption — it is truncated automatically."""
