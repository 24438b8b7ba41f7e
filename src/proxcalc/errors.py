"""Exception types shared across the library."""


class ProxcalcError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ProxcalcError):
    """A point, grid, or function was used with an incompatible dimension."""


class UnsupportedConjugate(ProxcalcError):
    """No closed-form conjugate rule applies to this function tree."""


class UnsupportedProx(ProxcalcError):
    """No closed-form prox rule applies to this function tree."""


class UnsupportedSubdifferential(ProxcalcError):
    """No structured subdifferential descriptor exists for this tree."""


class EmptySubdifferential(ProxcalcError):
    """The subdifferential is empty (query point outside the domain)."""


class DomainUnreachable(ProxcalcError):
    """Every probe point evaluated to +inf; the solver has nowhere to start."""


class NonConservativeField(ProxcalcError):
    """The queried vector field fails the gradient-field consistency checks."""


class ExtendedRealError(ProxcalcError, ArithmeticError):
    """Extended-real arithmetic produced -inf or inf - inf."""


class OracleError(ProxcalcError):
    """A prox oracle returned a non-finite point."""


class AnchorOutsideDomain(ProxcalcError):
    """An anchor point evaluates to +inf where a finite value is required."""


class OriginNotInC(ProxcalcError):
    """The support-distance check requires the set to contain the origin."""


class SpecParseError(ProxcalcError):
    """A function-spec document failed strict parsing."""
