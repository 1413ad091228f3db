"""Exception types shared by every module in the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(SimulationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NonUnitary(SimulationError):
    """A matrix required to be unitary is not, beyond tolerance."""


class NotNormalized(SimulationError):
    """A state vector does not have unit norm."""


class DimensionMismatch(SimulationError):
    """Operands have incompatible or non power-of-two dimensions."""


class BadIndex(SimulationError):
    """A qubit index or classical slot is out of range or misused."""


class ZeroProbability(SimulationError):
    """A projection or post-selection has vanishing probability."""


class Singular(SimulationError):
    """A matrix required to be invertible is singular within tolerance."""


class NotPositiveDefinite(SimulationError):
    """A matrix required to be positive definite has a negative eigenvalue."""


class InvalidC(SimulationError):
    """The rotation constant C produces an amplitude above one."""


class UnphysicalExpectations(SimulationError):
    """Pauli expectations lie too far outside the Bloch ball."""


class BadFlag(SimulationError):
    """A command-line or sweep parameter is out of its valid range."""
