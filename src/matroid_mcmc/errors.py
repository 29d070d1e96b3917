"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed input: bad matroid spec, bad graph file, bad weights, bad config."""


class ContractError(RuntimeError):
    """An API contract was violated (duplicate insert, delete of absent element, ...)."""


class UnsupportedOperationError(ContractError):
    """Operation not available for this object (e.g. rank of a ForestOracle)."""


class SizeLimitError(ValueError):
    """Instance is too large for an exact / brute-force code path."""


class EmptySelectionError(ContractError):
    """A weighted selection was requested while every weight is zero."""
