"""Exception types, one per decision a caller makes on them."""


class ProxycamError(Exception):
    """Base class for every error raised by this package; the CLI exits 1."""


class ValidationError(ProxycamError):
    """An input violates a documented invariant: a config, a tuple, a
    packet or a PNG. The cloud counts a packet that raises it as malformed.
    """


class DegeneratePoseError(ProxycamError):
    """Too few visible joints to box or measure a pose."""


class StageError(ProxycamError):
    """Failure inside the per-frame edge pipeline; its message names the
    stage on the CLI's `error:` line."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


class GateViolationError(ProxycamError):
    """The pre-transmission privacy gate refused a tuple; the CLI exits 2."""
