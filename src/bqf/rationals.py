"""Parsing and formatting of exact rationals as p/q strings."""

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError


def parse_rational(text: str) -> Fraction:
    """Parse strings like "3/4", "-2" or "9/10" into a Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1.

    Every digit is written: Decimal, unlike str(), ignores the interpreter's
    limit on int digits (parse_rational keeps that limit).
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
