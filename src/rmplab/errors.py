"""Exception types shared across the package.

Every exception carries a short machine-readable ``code`` so that CLI
layers and tests can dispatch on the failure kind without parsing
messages.
"""
from __future__ import annotations


class RmplabError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"


class SpecRejectedError(RmplabError, ValueError):
    """A NoiseSpec failed validation for the requested role."""

    code = "REJECTED"


class UnsupportedKindError(RmplabError, ValueError):
    """Operation is not defined for this noise kind."""

    code = "UNSUPPORTED"


class EmptyInputError(RmplabError, ValueError):
    code = "EMPTY_INPUT"


class LengthMismatchError(RmplabError, ValueError):
    code = "LENGTH_MISMATCH"


class NonpositiveValueError(RmplabError, ValueError):
    """Logarithmic fitting requires strictly positive values."""

    code = "NONPOSITIVE_VALUE"


class DNonpositiveError(RmplabError, ValueError):
    """Rate formulas require a strictly positive diffusion constant."""

    code = "D_NONPOSITIVE"


class InsufficientTailError(RmplabError, ValueError):
    """Too few usable order statistics for a tail fit."""

    code = "INSUFFICIENT_TAIL"


class NoSignChangeError(RmplabError, ValueError):
    """Fitted growth rates do not bracket zero on the order grid."""

    code = "NO_SIGN_CHANGE"


class NonfiniteEstimateError(RmplabError, ValueError):
    code = "NONFINITE"  # an estimate or its error bar overflowed float64


class WindowTooShortError(RmplabError, ValueError):
    code = "WINDOW_TOO_SHORT"


class WindowTooLongError(RmplabError, ValueError):
    code = "WINDOW_TOO_LONG"


class SameSeedError(RmplabError, ValueError):
    """Two-sample comparisons require independently seeded ensembles."""

    code = "SAME_SEED"


class TruncationWarningError(RmplabError, ValueError):
    """Finite-horizon stationary sampling cannot represent a divergent moment."""

    code = "TRUNCATION_WARNING"


class ClassMismatchError(RmplabError, ValueError):
    """Requested diagnostic mode contradicts the test-function growth class."""

    code = "CLASS_MISMATCH"


class ConfigInvalidError(RmplabError, ValueError):
    """Experiment configuration failed schema validation."""

    code = "CONFIG_INVALID"


class IOFailureError(RmplabError, OSError):
    code = "IO_FAILURE"
