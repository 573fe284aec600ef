"""Exception types shared by every subsystem.

All toolkit errors derive from :class:`AlgSeriesError` so callers (and the
CLI) can catch one base class and map it to an exit status.
"""


class AlgSeriesError(Exception):
    """Base class for all toolkit errors."""


class ZeroDenominator(AlgSeriesError):
    """A polynomial expression divides by an integer that is zero in the
    field, such as X/3 over F_3."""


class ZeroConstantTerm(AlgSeriesError):
    """A series expansion needs an invertible constant term and got none."""


class InsufficientPrecision(AlgSeriesError):
    """A truncated series is too short for the requested operation."""


class HypothesisViolated(AlgSeriesError):
    """Input does not satisfy the hypotheses of the construction."""


class InfiniteField(AlgSeriesError):
    """An operation defined only over finite fields was given the rationals."""


class StateBudgetExceeded(AlgSeriesError):
    """automaton.close found more states than its budget: a Cartier closure
    (rational_kernel, roots.cartier_closure) grew past its cap."""


class BaseMismatch(AlgSeriesError):
    """Automaton digit base and field cardinality disagree."""


class DegreeBlowup(AlgSeriesError):
    """Kernel is too large for exact elimination (degrees grow like q^d)."""


class NoRelation(AlgSeriesError):
    """No annihilating relation was found; internal error for valid inputs."""


class DegenerateReduction(AlgSeriesError):
    """P(0, Y) vanishes identically, so residue roots are undefined."""


class NonSimpleRoot(AlgSeriesError):
    """Newton lifting requires a simple residue root."""


class NotSquarefree(AlgSeriesError):
    """The polynomial has a repeated factor in Y."""


class ZeroA0(AlgSeriesError):
    """A relation lacks the k=0 term; frobenius_from_poly never synthesizes
    one for a squarefree P."""


class SchemaError(AlgSeriesError):
    """Malformed automaton JSON; ``path`` points at the offending node."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class ParseError(AlgSeriesError):
    """Syntax error in a polynomial expression; ``offset`` is a position
    inside the input string."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class NegativeExponent(ParseError):
    """Exponents must be nonnegative integer literals."""


class UnknownSymbol(ParseError):
    """Only the declared variables may appear in an expression."""
