"""Exception hierarchy shared by all modules."""


class LocalCharError(Exception):
    """Base class for all library errors."""


class ConfigError(LocalCharError):
    """Invalid run configuration or malformed input descriptor."""


class CapacityError(LocalCharError):
    """A computation would exceed a configured size budget."""


class WildRamification(ConfigError):
    """A requested extension step has degree divisible by p."""


class ExpLogRadius(ConfigError):
    """p - 1 <= e(T/F), so truncated exp/log do not converge on 1 + P."""


class PrecisionLoss(LocalCharError):
    """A result cannot be certified at the precision the caller needs."""


class DivisionByZero(LocalCharError):
    """Inversion of zero, or of an element not certified to be nonzero."""


class ConductorTooSmall(LocalCharError):
    """Operation needs conductor >= 2 (standard representative undefined)."""


class EvenConductor(LocalCharError):
    """Gauss sum requested for a character of even conductor."""


class ConductorMismatch(LocalCharError):
    """Epsilon ratio requires equal conductors and matching top-layer data."""


class NotAdmissible(LocalCharError):
    """Character fails admissibility where an admissible one is required."""


class UnsupportedShape(LocalCharError):
    """Twisting pair shape outside the supported compositum arithmetic."""


class InternalContradiction(LocalCharError):
    """A case the underlying valuation arithmetic rules out was reached."""


class RangeViolation(LocalCharError):
    """Arguments violate the inequality chain required by the exponent ledger."""


class NotInvertible(LocalCharError):
    """Exact inversion is not certified (value not shown to have unit modulus)."""
