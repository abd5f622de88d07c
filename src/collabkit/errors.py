"""Exception hierarchy shared across the toolkit.

Keeping all error types in one module lets the CLI map them onto exit
codes without importing every subsystem.
"""


class CollabKitError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(CollabKitError):
    """A run configuration failed validation, or names a discipline root
    that is not a level-1 concept."""


class TransportError(CollabKitError):
    """An HTTP request failed, at once or after exhausting retries on
    HTTP 429, HTTP 5xx or a connection error."""


class MissingFixtures(TransportError):
    """Offline mode was requested but the page cache has no entries."""


class ParseError(CollabKitError):
    """A payload could not be decoded into the expected shape."""


class InvalidH0(CollabKitError):
    """The rescaling ceiling must lie strictly above every merge height."""
