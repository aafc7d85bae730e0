"""Exception types shared across the package."""


class TwistParityError(Exception):
    """Base class for all package errors."""


class Malformed(TwistParityError):
    """Unparseable field, element or curve literal."""


class ZeroElement(TwistParityError):
    """An operation received 0 where a nonzero field element is required."""


class InternalInvariantError(TwistParityError):
    """An internal consistency check failed: a bug in the package, not bad input."""


class NotSquarefree(TwistParityError):
    """Field constructor got m that is not squarefree (or m in {0, 1})."""


class ClassNumberNotOne(TwistParityError):
    def __init__(self, m, h=None):
        self.m = m
        self.h = h
        msg = f"Q(sqrt {m}) has class number {h}" if h else f"Q(sqrt {m}) does not have class number 1"
        super().__init__(msg)


class FactorizationBudgetExceeded(TwistParityError):
    """Pollard-Brent rho spent its work budget without splitting an integer."""

    def __init__(self, n, budget):
        self.n = n
        self.budget = budget
        super().__init__(f"factoring a {n.bit_length()}-bit integer exceeded "
                         f"the budget of {budget} rho steps")


class SingularCurve(TwistParityError):
    """Weierstrass equation with discriminant 0."""


class ZeroTwistParameter(TwistParityError):
    """quadratic_twist called with delta = 0."""


class UnsupportedRepresentation(TwistParityError):
    """A local representation is supercuspidal or cannot be certified from reduction data."""

    def __init__(self, place=None, detail=""):
        self.place = place
        where = f" at {place}" if place is not None else ""
        super().__init__(f"unsupported (supercuspidal or unknown) local representation{where}. {detail}".rstrip())


class WrongRepClass(TwistParityError):
    """m_v asked for a representation outside the multiplicative / potentially multiplicative classes."""


class ParityUnavailable(TwistParityError):
    """Rank parity is not computable and no override was supplied."""


class ExplosionGuard(TwistParityError):
    """An exhaustive enumeration would exceed the configured size bound."""

    def __init__(self, size, bound):
        self.size = size
        self.bound = bound
        super().__init__(f"enumeration of size {size} exceeds guard {bound}")
