"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input for a library operation."""


class OrderShortfallError(DomainError):
    """A cumulant sequence was read beyond its truncation order."""


class ExpansionCapError(DomainError):
    """A polynomial expansion exceeded the configured term cap."""


class HermitianError(DomainError):
    """Matrix data is not self-adjoint."""


class PoleProximityError(DomainError):
    """Evaluation point too close to a pole."""


class AtomProximityError(DomainError):
    """Evaluation point too close to an atom location."""

