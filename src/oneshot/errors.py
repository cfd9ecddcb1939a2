"""Semantic exception types shared across the toolkit, and the form in
which their messages give a count."""

import math


class OneshotError(Exception):
    """Base class for all toolkit errors."""


class InputFormatError(OneshotError, ValueError):
    """Malformed input: bad JSON document, bad shape, bad mass, bad config,
    or objects that must share an alphabet or shape and do not.

    The message names the offending field or quantity.
    """


class EnumerationCapError(OneshotError, RuntimeError):
    """An exact computation would exceed its enumeration cap."""


def count_text(n: int) -> str:
    """A count for a message: in full up to 10^15, else ``~10^N``.  The
    exponent comes from the bit length, never from ``str(n)``: counts built
    from user input can pass Python's digit limit for int-to-str conversion."""
    if n <= 10**15:
        return str(n)
    return f"~10^{round((n.bit_length() - 0.5) * math.log10(2))}"
