"""Exception types shared across the toolkit."""


class HotspotsError(Exception):
    """Base class for all toolkit-specific errors."""


# --- bessel ---------------------------------------------------------------

class NonFiniteInput(HotspotsError):
    """NaN or infinity passed where a finite real is required."""


class ConvergenceFailure(HotspotsError):
    """An iterative solve (root finder or eigensolver) missed its tolerance."""


# --- geometry -------------------------------------------------------------

class TooFewVertices(HotspotsError):
    pass


class NotConvex(HotspotsError):
    pass


class DegenerateArea(HotspotsError):
    pass


class InternalInvariantViolation(HotspotsError):
    """A condition the implementation guarantees structurally was observed false."""


# --- domain specs ---------------------------------------------------------

class ParseError(HotspotsError):
    """Malformed domain-spec document; message names the offending field."""


class SchemaVersionMismatch(HotspotsError):
    pass


class BadArgument(HotspotsError):
    """A run setting outside its range; message names the setting."""


# --- meshing --------------------------------------------------------------

class InvalidH(HotspotsError):
    pass


class QualityFailure(HotspotsError):
    """Mesh min-angle bound not met after the split rounds."""


class PointOutsideMesh(HotspotsError):
    pass


# --- fem ------------------------------------------------------------------

class NoInteriorVertices(HotspotsError):
    pass


class ZeroVector(HotspotsError):
    pass


# --- analysis -------------------------------------------------------------

class AnchorOnBoundary(HotspotsError):
    pass


class CircleOutsideDomain(HotspotsError):
    pass


class NotPositiveComponent(HotspotsError):
    pass


# --- pipeline -------------------------------------------------------------

class StageError(HotspotsError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause!r}")
        self.stage = stage
        self.cause = cause
