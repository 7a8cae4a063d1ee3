"""Exact Boolean cumulant calculus for quadratic forms.

Subpackages, one concern each:

- partitions: interval partitions of {1..n}, refinement, matchings, closure
  structure.
- cumulants: moment/cumulant conversion, word moments under Boolean
  independence, the brute-force polynomial oracle, mixed and product
  cumulants, scalar shifts, distribution presets.
- series: exact rational power series, tangent/zigzag numbers, tangent
  polynomials, the limit generating functions.
- matrices: Hermitian matrices over Gaussian rationals, the quadratic-form
  cumulant engine (one composition DP for shared and per-variable
  families; per-partition enumeration and the Hadamard-factored route as
  oracles), trace identities, independence and zero-row-sum diagnostics,
  all on one Python-int matvec kernel except the Hadamard oracle.
- stats: symmetrized products, sample variance, shifted sums of squares,
  and the compact closed form for shifted Gaussian sums.
- measure: the atomic measure with tangent-root atoms, its self-energy and
  partial sums, convergence tables, and zeta/tangent/zigzag trace
  approximations.
- cli: the `bqf` command-line front end.

All core arithmetic is exact (Python ints over common denominators,
fractions.Fraction, Gaussian rationals).
binary64 enters only in the measure module's root-finding and atom data,
and in the final rounding of exact results for its tables (convergence
and trace approximations are exact for every n up to that one rounding);
it is always labeled as such in serialized output.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
