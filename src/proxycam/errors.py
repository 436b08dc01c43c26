"""Exception hierarchy shared across the pipeline."""


class ProxycamError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ProxycamError):
    """An input violates a documented invariant."""


class ConfigurationError(ProxycamError):
    """An operation was invoked with an unusable configuration."""


class DegeneratePoseError(ProxycamError):
    """Too few visible joints to render or measure."""


class DegenerateSubjectError(ProxycamError):
    """Every joint of a subject is invisible."""


class StageError(ProxycamError):
    """Failure inside the per-frame edge pipeline, tagged with its stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


class GateViolationError(ProxycamError):
    """The pre-transmission privacy gate refused a tuple."""

    def __init__(self, violations):
        names = ", ".join(v.rule for v in violations)
        super().__init__(f"privacy gate refused tuple: {names}")
        self.violations = list(violations)


class WireError(ProxycamError):
    """Base class for packet codec failures."""


class ProtocolError(WireError):
    """Bad magic, truncated section, or inconsistent lengths."""


class VersionError(WireError):
    """Packet declares a version this codec does not speak."""


class IntegrityError(WireError):
    """Checksum mismatch."""


class ConsistencyError(WireError):
    """Decoded fields contradict each other (e.g. pose/order id sets differ)."""
