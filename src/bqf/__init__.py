"""Exact Boolean cumulant calculus for quadratic forms.

Subpackages, one concern each:

- partitions: interval partitions of {1..n}, refinement, matchings, closure
  structure.
- cumulants: moment/cumulant conversion, word moments under Boolean
  independence, the brute-force polynomial oracle, mixed and product
  cumulants, scalar shifts, distribution presets.
- series: exact rational power series, tangent/zigzag numbers, the limit
  generating functions.
- matrices: Hermitian matrices as integer grids over one denominator, the
  quadratic-form cumulant engine (one composition DP for shared and
  per-variable families), trace identities, independence and
  zero-row-sum diagnostics, on one Python-int kernel.
- stats: symmetrized products, sample variance, shifted sums of squares,
  and the compact closed form for shifted Gaussian sums.
- measure: the atomic measure with tangent-root atoms, its self-energy and
  partial sums, convergence tables, and zeta/tangent/zigzag trace
  approximations.
- cli: the `bqf` command-line front end.
- oracles: the one home of the independent routes the tests check
  against; no CLI subcommand imports it.

All core arithmetic is exact (Python ints over common denominators and
fractions.Fraction).
binary64 enters only in the measure module's root-finding and atom data,
and in the final rounding of exact results for its tables (convergence
and trace approximations are exact for every n up to that one rounding);
it is always labeled as such in serialized output.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
