"""Parsing and formatting of exact rationals as p/q strings, and the bounds
on the data read from outside."""

from decimal import Decimal
from fractions import Fraction
from math import lcm

from .errors import DomainError


# Bound on the bits of the numerator and of the denominator of every
# rational read from outside: flags, presets and matrix files.  Exponent
# notation makes short text large (1e100 is a 333-bit integer), and the
# exact results grow with these bits: stats sample-variance --n 1000000
# --order 1000 with a Poisson preset of 20-, 24- and 32-bit values takes
# 7.1, 8.2 and 14.6 s (2-core x86-64 host).
RATIONAL_MAX_BITS = 32

# Bound on the bits of the lcm of the denominators of a rational list (the
# flags --weights, --shifts, --moments and --cumulants, and the list
# presets) and of a matrix file's entries, over which the file's matrix is
# stored: values with distinct denominators multiply them.  32 bits is the
# least bound that refuses no single value parse_rational accepts.  Slowest
# at it: stats symmetrized with 16 weights at --order 1000 21 s (34 MB of
# JSON), cumulants convert --cumulants with 400 values 16 s and matrix
# h-series --order 512 of a 64 x 64 file 9.8 s; at 64 bits they take 28,
# 32 and 8.6 s, and h-series takes 24 s at 128 bits (2-core x86-64 host).
DENOMINATOR_MAX_BITS = 32

# Bound on the size n of a --matrix file, read from its "n" by load_matrix
# before any entry is parsed: each matvec costs n^2 products, so a Krylov
# chain grows about 4x per doubling of n.  At n = 64, h-series --order 512
# takes 3.1 s, independence --k 512 on an exactly independent pair 3.9 s
# and cumulants qf --order 64 0.6 s (2-core x86-64 host).
MATRIX_MAX_N = 64

# Bound on the bytes of a --matrix file, checked by load_matrix before the
# file is decoded: decoding takes time and memory in proportion to the
# bytes, and 2 MB of empty JSON arrays take 0.27 s and 66 MB a child.  The
# largest 64 x 64 file save_matrix writes, with 32-bit parts, has 342 KB,
# and 687 KB when indented by 8 (2-core x86-64 host).
MATRIX_MAX_BYTES = 2_000_000


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
    """The stripped pieces of a comma-separated list, none of them empty."""
    pieces = [piece.strip() for piece in str(text).split(",")]
    if not all(pieces):
        raise DomainError(f"the list {text!r} has an empty entry")
    return pieces


def check_denominators(values, what: str):
    """Refuse values whose denominators have an lcm past DENOMINATOR_MAX_BITS
    bits, as soon as one takes it there."""
    den = 1
    for value in values:
        den = lcm(den, value.denominator)
        if den.bit_length() > DENOMINATOR_MAX_BITS:
            raise DomainError(
                f"the {what} need a common denominator of more than "
                f"{DENOMINATOR_MAX_BITS} bits (at {format_rational(value)})"
            )


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated rational list like "1,-1/2,0"."""
    values = [parse_rational(piece) for piece in split_list(text)]
    check_denominators(values, "list values")
    return values
