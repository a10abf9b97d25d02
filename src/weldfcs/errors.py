"""Exception hierarchy for the welding / FCS pipeline."""


class WeldFcsError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(WeldFcsError):
    """Run configuration rejected; the message names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class BoxTooSmall(WeldFcsError):
    """Kink support does not fit inside [-L/4, L/4]."""


class QOnUnitCircle(WeldFcsError):
    """Modular nome |q| too close to 1 for the annulus solver."""


class TruncationTooCoarse(WeldFcsError):
    """Spectral tail diagnostic of the assembled kernels failed."""


class SingularSystem(WeldFcsError):
    """Projected torus system numerically singular."""


class WindowTooSmall(WeldFcsError):
    """Diffeomorphism support too close to the real-space window edge."""


class NodeTooLarge(WeldFcsError):
    """Welding node estimated above the memory budget before allocation, or
    out of memory below it."""


class NearSingular(WeldFcsError):
    """Cylinder Nystrom system close to singular (unexpected zero mode)."""


class NotConverged(WeldFcsError):
    """Series truncation bound not met within the configured term cap."""


class SeriesInfeasible(WeldFcsError):
    """Character q-series not evaluable at the requested modular parameter."""


class OutOfRange(WeldFcsError):
    """A closed form leaves the double-precision range at the requested
    parameters."""


class PoleHit(WeldFcsError):
    """Counting parameter sits on a pole of the closed-form rate."""


class DeltaBetaZero(WeldFcsError):
    """Equal asymptotic temperatures: lambda-parameterized FCS undefined.

    The flow time is lambda / (beta_right - beta_left); use the
    s-parameterized entry points (``by_s``) in this limit.
    """
