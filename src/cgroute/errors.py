"""Exception hierarchy shared across the package."""


class CgRouteError(Exception):
    """Base class for all package errors."""


class InputError(CgRouteError):
    """Invalid user-supplied data (bad file, bad parameter, empty scenario)."""


class FormatError(InputError):
    """A scenario/trace file failed strict parsing.

    Carries the offending file and line number when known; the message
    reads ``<path>: line <N>: <reason>``.
    """

    def __init__(self, reason: str, line: int | None = None, path: object = None):
        message = reason if line is None else f"line {line}: {reason}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.reason, self.line, self.path = reason, line, path


class ContractError(CgRouteError):
    """An API precondition was violated by the caller."""


class SolverError(CgRouteError):
    """The LP backend failed on a problem that is feasible by construction."""
