"""Exception types shared across the toolkit.

Every raised error derives from :class:`BranchDimError` so callers can
catch toolkit failures without accidentally swallowing programming bugs
like :class:`TypeError`.
"""


class BranchDimError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(BranchDimError):
    """A constructor or operation received parameters outside its contract."""


class DomainError(BranchDimError):
    """An evaluation point lies outside the object's domain."""


class FormatError(BranchDimError):
    """Serialized input (config file, spectrum file, CSV) failed to parse."""
