"""Exception hierarchy shared by all multihess modules."""


class MultihessError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeneratorError(MultihessError):
    """A generator coefficient violated positivity or ran out of terms."""


class NumericRangeError(MultihessError):
    """An intermediate product overflowed or left the representable range."""


class InvalidInputError(MultihessError):
    """User-supplied matrix or parameter violates a shape/sign contract."""


class PreconditionError(MultihessError):
    """An operation was called outside its documented domain."""


class IllConditionedSpectrumError(MultihessError):
    """A derivative at an eigenvalue underflowed; weights are unreliable."""


class PoleError(MultihessError):
    """Evaluation requested at (or too close to) a spectral node."""


class InsufficientDataError(MultihessError):
    """Finite generator too short for the requested truncation order."""


class NormalizationError(MultihessError):
    """Semi-infinite stochastic normalization hypothesis failed."""


class ConfigError(MultihessError):
    """Malformed or inconsistent run configuration."""
