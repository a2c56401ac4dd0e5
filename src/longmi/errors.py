"""Typed exceptions raised across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises ValueError as usual.
"""


class LongmiError(Exception):
    """Base class for all package errors."""


# ---- tabular ----------------------------------------------------------------


class DuplicateTimePoint(LongmiError):
    """A unit has two long-format rows at the same time value."""


class UnknownStub(LongmiError):
    """A time-varying column is not covered by the reshape map."""


class MalformedWideName(LongmiError):
    """A declared wide column does not parse as ``stub.time``."""


class MissingInFactor(LongmiError):
    """Indicator expansion requested for a column with masked cells."""


class UnknownColumn(LongmiError):
    """A referenced column does not exist in the dataset."""


class UnknownLevel(LongmiError):
    """A value does not match any declared level of a categorical column."""


# ---- random draws ------------------------------------------------------------


class NotPositiveDefinite(LongmiError):
    """A covariance matrix failed its Cholesky factorization."""


class SingularObservedBlock(LongmiError):
    """The observed-coordinate block of a covariance is singular."""


class InvalidDof(LongmiError):
    """Inverse-Wishart degrees of freedom too small for the dimension."""


class EmptyInterval(LongmiError):
    """Truncation interval has no interior."""


# ---- fitting ----------------------------------------------------------------


class RankDeficient(LongmiError):
    """Design matrix has linearly dependent columns."""


class PerfectSeparation(LongmiError):
    """Logistic-family likelihood is unbounded (separated data)."""


class EmptyCategory(LongmiError):
    """An ordinal response level has no observations."""


class ParseError(LongmiError):
    """Model formula text is malformed; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnsupportedNesting(LongmiError):
    """Random intercepts need one or two nested groupings."""


class IncompleteModelData(LongmiError):
    """Model variables contain masked cells; filter or impute first."""


# ---- imputation -------------------------------------------------------------


class TooFewClusters(LongmiError):
    """Cluster-specific residual covariances need at least 3 clusters."""


class UnknownParam(LongmiError):
    """Requested parameter was not recorded in the chain trace."""


class DegenerateSeries(LongmiError):
    """Autocorrelation of a constant series is undefined."""


class SingularFit(LongmiError):
    """A univariate imputation model could not be fit."""


class TooFewDonors(LongmiError):
    """Fewer observed donor values than the requested match count."""


class ChainFailure(LongmiError):
    """A chained-equations chain aborted; carries chain index and column."""

    def __init__(self, chain: int, column: str, cause: Exception):
        super().__init__(f"chain {chain} failed while imputing {column!r}: {cause}")
        self.chain = chain
        self.column = column
        self.cause = cause

    def __reduce__(self):
        # keeps the exception picklable across worker processes
        return (self.__class__, (self.chain, self.column, self.cause))


# ---- pooling ----------------------------------------------------------------


class MisalignedParams(LongmiError):
    """Fits being pooled do not share one parameter name list."""


class TooFewImputations(LongmiError):
    """Pooling needs at least two completed-data fits."""


# ---- cli --------------------------------------------------------------------


class UnsupportedMethod(LongmiError):
    """Requested imputation method is not available."""


class BadConfig(LongmiError):
    """Configuration file or flag combination is invalid."""
