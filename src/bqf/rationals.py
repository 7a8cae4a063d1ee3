"""Parsing and formatting of exact rationals as p/q strings."""

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError


# Bound on the bits of the numerator and of the denominator of every
# rational read from outside: flags, presets and matrix files.  Exponent
# notation makes short text large (1e100 is a 333-bit integer), and the
# exact results grow with these bits: stats sample-variance --n 1000000
# --order 1000 with a Poisson preset of 20-, 24- and 32-bit values takes
# 7.1, 8.2 and 14.6 s (2-core x86-64 host).  A list whose values have
# distinct denominators multiplies them, so stats symmetrized and
# cumulants convert at their count bounds can still run for minutes.
RATIONAL_MAX_BITS = 32


def parse_rational(text: str) -> Fraction:
    """Parse strings like "3/4", "-2", "9/10" or "1.5e-3" into a Fraction
    whose numerator and denominator are below 2**RATIONAL_MAX_BITS."""
    stripped = str(text).strip()
    _, e, exponent = stripped.lower().rpartition("e")
    try:
        # Fraction builds 10**exponent; no value inside the bound has a
        # decimal exponent above twice its length plus the bound
        if e and abs(int(exponent)) > 2 * len(stripped) + RATIONAL_MAX_BITS:
            value = None
        else:
            value = Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc
    limit = 1 << RATIONAL_MAX_BITS
    if value is None or abs(value.numerator) >= limit or value.denominator >= limit:
        raise DomainError(
            f"{text!r} needs more than {RATIONAL_MAX_BITS} bits "
            "in its numerator or denominator"
        )
    return value


def format_rational(value) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1.

    Every digit is written: Decimal, unlike str(), ignores the interpreter's
    limit on int digits (parse_rational reads only far smaller values).
    """
    p, q = Fraction(value).as_integer_ratio()
    return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"


def split_list(text: str) -> list[str]:
    """The non-empty pieces of a comma-separated list, stripped."""
    pieces = [piece.strip() for piece in str(text).split(",")]
    return [piece for piece in pieces if piece]


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated rational list like "1,-1/2,0"."""
    pieces = split_list(text)
    if not pieces:
        raise DomainError(f"empty rational list: {text!r}")
    return [parse_rational(piece) for piece in pieces]
