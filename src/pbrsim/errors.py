"""Exception types shared across the package."""


class UnitarityError(ValueError):
    """Matrix expected to be unitary is not."""


class ChannelError(ValueError):
    """Kraus operator set violates completeness."""


class KindError(ValueError):
    """Gate kind is unknown or not valid in this context."""


class CalibrationError(ValueError):
    """Calibration snapshot does not cover a required qubit or coupler."""


class FormatError(ValueError):
    """Input document does not parse or has unexpected structure."""


class ValidationError(ValueError):
    """Parsed document violates a field invariant."""


class RangeError(ValueError):
    """Numeric argument outside its documented domain."""


class NoSolutionError(ValueError):
    """Angle equation has no root for the requested parameters."""


class ProtocolError(ValueError):
    """Forbidden-outcome check failed (wrong angles or conventions)."""


class PathError(ValueError):
    """No path between the requested qubits on the coupling map."""


class CapError(ValueError):
    """Simulation would exceed the configured qubit cap."""
