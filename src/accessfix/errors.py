"""Exception types shared across the package."""


class AccessfixError(Exception):
    """Base class for all package errors."""


class InvalidFragmentError(AccessfixError):
    """A replacement fragment did not parse to exactly one element;
    ``elements`` is how many top-level elements it parsed to, when it
    holds nothing else (else 0)."""

    def __init__(self, message: str = "", elements: int = 0):
        super().__init__(message)
        self.elements = elements


class StaleLocatorError(AccessfixError):
    """A locator no longer resolves to the node it was created from."""


class UnknownRuleError(AccessfixError):
    """A ruleset referenced an unregistered rule id."""


class EmptyDatasetError(AccessfixError):
    """An aggregate was requested over zero reports."""


class UndefinedBaselineError(AccessfixError):
    """Improvement is undefined when the initial average is zero."""


class IncompleteViolationError(AccessfixError):
    """A violation is missing fields required to build a prompt."""


class UnparseableResponseError(AccessfixError):
    """No corrected element could be extracted from a provider response."""


class ProviderUnavailableError(AccessfixError):
    """The remote provider failed after exhausting retries."""


class ReplayMissError(AccessfixError):
    """The transcript has no entry for a request hash."""


class NoRecipeError(AccessfixError):
    """The heuristic fixer has no repair recipe for a rule."""


class SchemaError(AccessfixError):
    """A dataset file did not match the expected row schema."""


class ConfigError(AccessfixError):
    """Invalid configuration (unknown rule, bad provider settings, ...)."""
