"""Exception types shared across the package."""

from functools import wraps


class RecolorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RecolorError):
    """Operation preconditions violated."""


class InvalidColoring(InvalidInput):
    """A coloring is malformed or improper where properness is required."""


class InvalidSize(RecolorError):
    """An instance generator was asked for an impossible size."""


class NotEnoughColors(RecolorError):
    """No color is available for some vertex during coloring construction."""


class NotWidth2(RecolorError):
    """The graph has treewidth greater than 2."""


class OmegaTooLarge(RecolorError):
    """A vertex has more than 2 later neighbors along the ordering."""


class LiftFailure(RecolorError):
    """Expanding a merged-graph sequence produced an invalid sequence,
    which means a precondition on the inputs was violated."""


class TooLarge(RecolorError):
    """The state space exceeds the configured cap."""


class ImproperStart(RecolorError):
    """A sequence's start coloring is not proper."""


class SequenceStepError(RecolorError):
    """A replay error at a specific step of a recoloring sequence."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


class ImproperStep(SequenceStepError):
    """A step creates a monochromatic edge."""


class NoOpStep(SequenceStepError):
    """A step assigns a vertex the color it already has."""


class AuditViolation(RecolorError):
    """A sequence violates one of the audited structural rules."""

    def __init__(self, vertex: int, rule: str, index, detail: str):
        super().__init__(f"vertex {vertex}, rule {rule!r}, index {index}: {detail}")
        self.vertex = vertex
        self.rule = rule
        self.index = index
        self.detail = detail

    def to_json(self) -> dict:
        return dict(vertex=self.vertex, rule=self.rule, index=self.index, detail=self.detail)


def _json_loader(load):
    """Make a from_json raise InvalidInput for a malformed dict.

    A missing key or a value of the wrong shape surfaces as KeyError,
    TypeError or ValueError inside the loader; each becomes InvalidInput
    naming the loader. The loaders pass JSON values to the value types as
    they are, so a float, bool or string where an integer belongs is the
    value type's own InvalidInput.
    """

    @wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"{load.__qualname__}: {type(exc).__name__}: {exc}") from exc

    return checked
