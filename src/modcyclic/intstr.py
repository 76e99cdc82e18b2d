"""Decimal text of ints of any number of digits, for files and messages.

int(s) and str(n) refuse more than sys.get_int_max_str_digits() digits;
decimal, imported only past that limit, has none.  Every layer prints
through here, so this module imports nothing from the package."""

import re

_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")


def int_from_str(text: str) -> int:
    """The value of an ASCII sign-and-digit string of any length; raises
    ValueError on any other string, even one int() accepts."""
    if not (text.isdigit() and text.isascii()) and not _SIGNED_DIGITS.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text, 10)
    except ValueError:
        import decimal
        return int(decimal.Decimal(text))


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
