"""Semantic exception types shared across the toolkit."""


class OneshotError(Exception):
    """Base class for all toolkit errors."""


class InputFormatError(OneshotError, ValueError):
    """Malformed input: bad JSON document, bad shape, bad mass, bad config.

    The message names the offending field or quantity.
    """


class AlphabetMismatchError(OneshotError, ValueError):
    """Objects that must share an alphabet or shape do not."""


class EnumerationCapError(OneshotError, RuntimeError):
    """An exact computation would exceed its enumeration cap."""
