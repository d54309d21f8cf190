"""Exception hierarchy shared by all condfix modules."""


class CondfixError(Exception):
    """Base class for all errors raised by this package."""


class MiniLangSyntaxError(CondfixError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class ResolutionError(CondfixError):
    """An identifier, method, or call does not resolve."""


class KindMismatchError(CondfixError):
    """Patch kind is incompatible with the statement kind at its location."""


class PatchScopeError(CondfixError):
    """A patch expression references names not visible at its location."""


class SuiteFormatError(CondfixError):
    """A test-suite file is malformed."""


class NoFailingTestError(CondfixError):
    """An operation that requires at least one failing test got none."""


class UnsatisfiableMatrixError(CondfixError):
    """The trace matrix contains conflicting rows; no expression can fit."""


class SolverBackendError(CondfixError):
    """The external solver process failed (distinct from an unsat answer)."""


class InternalConsistencyError(CondfixError):
    """A model violated structural constraints; encoder or solver bug."""


class BundleError(CondfixError):
    """A corpus bundle is malformed or fails its self-check."""


class DeadlineExceeded(CondfixError):
    """A run or a search read the clock past its deadline."""
