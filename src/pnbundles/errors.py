"""Domain errors shared by every module.

Each error carries a stable ``code`` so the CLI can emit structured,
machine-readable failures.
"""


class DomainError(Exception):
    """Base class for errors that map to CLI exit code 1."""

    code = "DomainError"


class NotSubMultiset(DomainError):
    code = "NotSubMultiset"


class NotAdmissible(DomainError):
    code = "NotAdmissible"


class EmptyA(DomainError):
    code = "EmptyA"


class RegularityTooSmall(DomainError):
    code = "RegularityTooSmall"


class ModulusMismatch(DomainError):
    code = "ModulusMismatch"


class ShapeError(DomainError):
    code = "ShapeError"


class NotABundle(DomainError):
    code = "NotABundle"


class NotGeneralization(DomainError):
    code = "NotGeneralization"


class UnknownFormat(DomainError):
    code = "UnknownFormat"


class BadInput(DomainError):
    code = "BadInput"
