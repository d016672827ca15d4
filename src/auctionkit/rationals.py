"""Exact rationals: the canonical "num/den" text form with integer shorthand,
and the one conversion of rationals to integers over a common denominator."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import SchemaError

# ASCII digits only, and fullmatch: "\d" also takes other scripts' digits,
# and "$" also matches before a final newline.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def too_many_digits(where: str, digits: int) -> SchemaError:
    """The refusal of a number whose digits int() will not convert."""
    return SchemaError(f"{where}: a number of {digits} digits exceeds the "
                       f"limit of {sys.get_int_max_str_digits()} digits")


def parse_rational(raw: Union[int, str], *, canonicalize: bool = False,
                   where: str = "rational") -> Fraction:
    """Parse a JSON int or a "num/den" string into an exact Fraction.

    A string must spell its value as format_rational writes it: "2/4",
    "3/1", "007" and "-0" are rejected unless ``canonicalize`` is set, in
    which case they are reduced silently.  The string of an integer, such
    as "3", is accepted.
    """
    if isinstance(raw, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        match = _RATIONAL_RE.fullmatch(raw)
        if match is None:
            raise SchemaError(f"{where}: {raw!r} is not an integer or num/den rational")
        num_text, den_text = match.group(1), match.group(2) or "1"
        try:
            num, den = int(num_text), int(den_text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise too_many_digits(where, max(len(num_text.lstrip("-")),
                                             len(den_text))) from None
        value = Fraction(num, den)
        if not canonicalize and str(format_rational(value)) != raw:
            raise SchemaError(
                f"{where}: {raw!r} is not in lowest terms "
                f"(canonical form is {format_rational(value)!r})"
            )
        return value
    raise SchemaError(f"{where}: expected a rational, got {type(raw).__name__}")


def format_rational(value: Fraction) -> Union[int, str]:
    """Canonical JSON form: a bare int when integral, else "num/den"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def scale(values) -> tuple[tuple[int, ...], int]:
    """Rationals (Fractions or ints) as integers over one denominator.

    Returns (nums, denom) with denom the LCM of the values' reduced
    denominators (1 for no values) and nums[i] = values[i] * denom, so
    gcd(denom, *nums) is 1.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = math.lcm(*[d for _, d in ratios])
    return tuple([n * (denom // d) for n, d in ratios]), denom


def format_scaled(num: int, denom: int) -> Union[int, str]:
    """format_rational(Fraction(num, denom)), without building the Fraction."""
    if denom == 1:
        return num
    common = math.gcd(num, denom)
    if common == denom:
        return num // denom
    return f"{num // common}/{denom // common}"
