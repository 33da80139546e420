"""Exception types shared across the package."""


class EthsimError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EthsimError):
    pass


class NotHermitian(EthsimError):
    pass


class NotAbelian(EthsimError):
    pass


class GenericityFailure(EthsimError):
    """A randomized construction produced a non-generic draw; retry with a new seed."""


class NonConvergence(EthsimError):
    """An iterative closure failed to stabilize within its round cap."""


class ClosureFailure(EthsimError):
    """A computed centralizer is not closed under products: its rank cut is near-degenerate."""


class ZeroProbability(EthsimError):
    pass


class NotMember(EthsimError):
    pass


class OutOfRange(EthsimError):
    pass


class TreeTooLarge(EthsimError):
    pass


class DepthExceeded(EthsimError):
    pass


class NotInFutureAlgebra(EthsimError):
    """A quantity's designated probe site has already been emitted."""


class AmbiguousPointer(EthsimError):
    """No unique pointer index passes the dichotomy test; the tolerance is too large."""


class RecordingConditionsFailed(EthsimError):
    pass


class SeparationFailure(EthsimError):
    """Outcome distributions of different conserved sectors coincide; classification impossible."""


class NoEventError(EthsimError):
    """A pipeline that requires events ran on a model that never produces one."""


class EmptyProtocol(EthsimError):
    pass


class ParseError(EthsimError):
    pass


class ValidationError(EthsimError):
    pass


class DegenerateWeightWarning(UserWarning):
    """A conditional expectation met a zero-weight sector; its term was set to zero."""
