"""Exception types shared across the package."""


class SupercongError(Exception):
    """Base class for all package-specific errors."""


class DenominatorNotUnit(SupercongError):
    """Rational-to-residue conversion with a denominator divisible by p."""


class NegativeValuation(SupercongError):
    """Attempt to reduce a value with v_p < 0 to a residue."""


class PoleFloorViolated(SupercongError):
    """A stream term at a weight pole has a lower valuation than its product guarantees."""


class ModulusTooHigh(SupercongError):
    """A right-hand side is known only modulo a lower power of p than requested."""


class NotRepresentable(SupercongError):
    """Prime is not represented by the requested quadratic form."""


class NotCoprime(SupercongError):
    """Legendre symbol argument shares a factor with the modulus."""


class WrongClass(SupercongError):
    """Special constant requested for a prime in the wrong residue class."""


class BaseNotUnit(SupercongError):
    """Sum base m (or its inverse) is divisible by p."""


class UnknownStatement(SupercongError):
    """Statement id not present in the registry."""
