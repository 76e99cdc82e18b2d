"""Decimal text of ints of any number of digits, for files and messages.

int(s) and str(n) refuse more than sys.get_int_max_str_digits() digits.
Past that limit a digit string is read by halves, each half by int() once
it is short enough, and an int is written through decimal, imported only
then, which has no limit.  Every layer prints through here, so this module
imports nothing from the package."""

import re
import sys
from functools import lru_cache

_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


@lru_cache(maxsize=64)
def _power_of_ten(n: int) -> int:
    return 10 ** n


def _digits_value(digits: str) -> int:
    """The value of a string of ASCII digits: int() below the digit limit,
    else the high half times 10**len(low half) plus the low half, so that
    the work is a few big products rather than quadratic."""
    if len(digits) <= sys.get_int_max_str_digits():
        return int(digits)
    low = len(digits) // 2
    return (_digits_value(digits[:-low]) * _power_of_ten(low)
            + _digits_value(digits[-low:]))


def int_from_str(text: str) -> int:
    """The value of an ASCII sign-and-digit string of any length; raises
    ValueError on any other string, even one int() accepts."""
    if not (text.isdigit() and text.isascii()) and not _SIGNED_DIGITS.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text, 10)
    except ValueError:
        value = _digits_value(text.lstrip("+-"))
        return -value if text[0] == "-" else value


def int_to_str(n: int) -> str:
    """str(n), also for ints of any number of digits."""
    try:
        return str(n)
    except ValueError:
        import decimal
        return str(decimal.Decimal(n))


def int_text(v) -> str:
    """str(v) for an int, or a list or tuple of ints, of any number of digits."""
    if isinstance(v, int):
        return int_to_str(v)
    inner = ", ".join(map(int_to_str, v)) + ("," if isinstance(v, tuple) and len(v) == 1 else "")
    return f"[{inner}]" if isinstance(v, list) else f"({inner})"
