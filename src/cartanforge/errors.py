"""Exception types shared by all cartanforge modules."""


class CartanforgeError(Exception):
    """Base class for all errors raised by this package."""


# -- symbolic expressions ----------------------------------------------------

class UnknownVariable(CartanforgeError):
    """A variable name that is empty or not a string."""


class DomainFunction(CartanforgeError):
    """A function with no symbolic rule for the requested operation (abs)."""


class UnboundVariable(CartanforgeError):
    """Numeric evaluation hit a variable with no binding."""


class ExpressionTooLarge(CartanforgeError):
    """Expanding a product of sums would build more terms than the limit."""


class NumericDomain(CartanforgeError):
    """Numeric evaluation left the real domain (log <= 0, sqrt < 0, 1/0)."""


def location(text, pos):
    """(line, col) of index `pos` in `text`, both counted from 1."""
    return (text.count("\n", 0, pos) + 1,
            pos - text.rfind("\n", 0, pos))


class ParseError(CartanforgeError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


# -- charts, forms, bundle data ---------------------------------------------

class DuplicateName(CartanforgeError):
    """Coordinate name repeated or colliding with a reserved name."""


class EmptyAxis(CartanforgeError):
    """A chart axis was declared with no coordinates."""


class ChartMismatch(CartanforgeError):
    """Operands live on different charts or different coordinate spaces."""


class DegreeZero(CartanforgeError):
    """Interior product applied to a 0-form."""


class MissingInverse(CartanforgeError):
    """A base-map inverse was required but absent or not an actual inverse."""


class NotFiberPreserving(CartanforgeError):
    """Map components mix fiber coordinates into the base part."""


class NotOnEChart(CartanforgeError):
    """A vector field expected on the total-space chart has jet components."""


# -- symmetry checks ---------------------------------------------------------

class HypothesisViolated(CartanforgeError):
    """A conservation-statement hypothesis failed; `which` names it."""

    def __init__(self, which, detail=""):
        self.which = which
        self.detail = detail
        msg = f"hypothesis ({which}) violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# -- problem files and CLI ---------------------------------------------------

class UnknownCoordinate(CartanforgeError):
    """An expression references a coordinate the bundle does not declare."""


class DuplicateDefinition(CartanforgeError):
    """The same block or key was defined twice in a problem file."""


class MissingArgument(CartanforgeError):
    pass


class InvalidArgument(CartanforgeError):
    """A command-line option has a value the command cannot use."""
