"""Exception types shared by all cartanlab modules, and the default size
guard of the spectral-set searches, which the command line reads without
loading the numeric modules."""

SPECTRAL_GUARD = 25


class CartanLabError(Exception):
    """Base class for all library errors."""


class StructuralError(CartanLabError):
    """Operands are structurally incompatible (e.g. different atom sets)."""


class OrthogonalityError(CartanLabError):
    """A family passed to an orthogonal join contains a non-orthogonal pair."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(f"elements are not orthogonal: {first} vs {second}")


class ClosureError(CartanLabError):
    """An element list is not closed under the monoid operations."""

    def __init__(self, witness, message="element set is not closed"):
        self.witness = witness
        super().__init__(f"{message}; witness: {witness}")


class DomainError(CartanLabError):
    """An argument violates an operation's precondition."""


class FormatError(CartanLabError):
    """A document or table is malformed."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class SizeGuardError(CartanLabError):
    """A brute-force search would exceed the configured guard."""

    def __init__(self, needed, guard, what="search space"):
        self.needed = needed
        self.guard = guard
        super().__init__(f"{what} of size {needed} exceeds guard {guard}")


class InvariantViolation(CartanLabError):
    """An internal invariant failed; indicates a bug or invalid input."""
