"""Exception hierarchy shared by all thinprimes modules."""


class ThinPrimesError(Exception):
    """Base class for all errors raised by this package."""


class ParameterOutOfRange(ThinPrimesError):
    """A family parameter lies outside its legal range."""


class MonotonicityUnattainable(ThinPrimesError):
    """No admissible left endpoint x0 <= 10^6 satisfies the growth checks."""


class DomainError(ThinPrimesError):
    """Evaluation requested below the function's validity domain."""


class NoConvergence(ThinPrimesError):
    """Inverse-function iteration failed to reach tolerance."""


class LimitTooLarge(ThinPrimesError):
    """Requested sieve limit exceeds the memory guard."""


class LimitMismatch(ThinPrimesError):
    """Enumeration limit exceeds the backing prime table."""


class PrecisionExhausted(ThinPrimesError):
    """A floor decision stayed ambiguous even in extended precision."""


class RangeBeyondTable(ThinPrimesError):
    """A sum range reaches past the built prime table."""


class RegimeViolation(ThinPrimesError):
    """Decomposition called outside its validity regime (P <= v)."""


class HypothesisViolated(ThinPrimesError):
    """A numerically checked hypothesis of a bound fails; message names it."""


class EmptySet(ThinPrimesError):
    """An averaging set is empty at the requested cutoff."""


class InvalidBreaks(ThinPrimesError):
    """Oscillation breakpoints must be strictly more than doubling."""


class SpectralMismatch(ThinPrimesError):
    """Direct and spectral representation counts disagree."""


class CutoffTooSmall(ThinPrimesError):
    """Singular-series cutoff below the supported minimum."""


class ParseError(ThinPrimesError):
    """Malformed config text; message carries line/position."""


class ValidationError(ThinPrimesError):
    """Config parsed but violates a module precondition."""
