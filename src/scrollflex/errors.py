"""Shared exception types for the engine, and the checks that turn
malformed input files into them."""

import json


class ScrollflexError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ScrollflexError, ValueError):
    """An argument violates a documented precondition."""


class RingMismatchError(InvalidInputError):
    """Two graded classes from different rings were combined."""


class ResourceLimitError(ScrollflexError):
    """A combinatorial guard (rank product, minor count) was exceeded."""


class IncompleteDataError(ScrollflexError):
    """Evaluation needs intersection numbers that were not supplied."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(
            "missing intersection numbers: " + ", ".join(self.missing)
        )


class InternalConsistencyError(ScrollflexError):
    """Two independent derivations of the same quantity disagree."""


def load_json(path):
    """The parsed content of a JSON file; ``InvalidInputError`` if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``, which JSON's
    ``true`` and ``false`` parse to."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_fields(payload, fields, what: str) -> None:
    """Raise ``InvalidInputError`` unless ``payload`` is a JSON object
    holding every name in ``fields``; ``what`` names it in the message."""
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    missing = [name for name in fields if name not in payload]
    if missing:
        raise InvalidInputError(f"{what} lacks {', '.join(map(repr, missing))}")
