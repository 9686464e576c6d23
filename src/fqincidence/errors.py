"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


# -- field construction and arithmetic --

class NotPrime(ToolkitError):
    pass


class DegreeOutOfRange(ToolkitError):
    pass


class DivisionByZero(ToolkitError, ZeroDivisionError):
    pass


# -- geometry --

class FieldMismatch(ToolkitError):
    pass


class SizeCap(ToolkitError):
    """A brute-force count would exceed its hard size budget."""


# -- set systems --

class SubsetTooLarge(ToolkitError):
    pass


class BudgetExceeded(ToolkitError):
    """An exhaustive search would exceed its combinatorial budget."""


# -- reductions --

class VerticalLinePresent(ToolkitError):
    pass


# -- norm/dot applications --

class EvenCharacteristic(ToolkitError):
    pass


class EqualPoints(ToolkitError):
    pass


class InvalidPointSet(ToolkitError, ValueError):
    """An empty point set, or a subset that is not one."""


# -- harness --

class Unrealizable(ToolkitError):
    """A requested configuration does not fit in the ambient space."""
