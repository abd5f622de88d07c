"""Exception hierarchy shared across the toolkit.

Keeping all error types in one module lets the CLI map them onto exit
codes without importing every subsystem.
"""


class CollabKitError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(CollabKitError):
    """A run configuration failed validation."""


class TransportError(CollabKitError):
    """An HTTP request failed after exhausting retries."""


class RateLimited(TransportError):
    """The remote API kept answering 429 beyond the retry budget."""


class MissingFixtures(TransportError):
    """Offline mode was requested but the page cache has no entries."""


class ParseError(CollabKitError):
    """A payload could not be decoded into the expected shape."""


class WrongLevel(CollabKitError):
    """A concept was used in a role its taxonomy level does not allow."""


class InvalidH0(CollabKitError):
    """The rescaling ceiling must lie strictly above every merge height."""
