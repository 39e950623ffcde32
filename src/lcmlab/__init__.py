"""lcmlab: exact lcm/radical/prime-exponent statistics of polynomial values.

Computes the full prime factorization of Q(N) = prod_{n<=N} |f(n)| for an
integer polynomial f, derives lcm(f(1),...,f(N)), its radical, and the
small/linear/large prime zone decomposition, and verifies the finite
multiplicity bounds and identities those statistics rest on.
"""

from .aggregate import SweepRecord, summarize, sweep
from .analysis import (
    VerificationReport,
    check_amgm_ratio,
    check_divided_difference,
    check_hensel_formula,
    check_naive_multiplicity,
    check_refined_multiplicity,
    check_squareful_ratios,
    check_zone_inequalities,
    divided_difference_A,
    run_checks,
)
from .modular import RootSet, count_progression, lift_roots, roots_mod_p
from .oracle import OracleResult, naive_run
from .polynomial import (
    IntPoly,
    PolyProfile,
    ZeroDiscriminant,
    discriminant,
    parse_poly,
    profile,
    value_bound,
)
from .sieve import (
    FactorLedger,
    LedgerMismatch,
    PrimeLocalData,
    build_ledger,
    factor_cofactor,
    local_data,
)

__version__ = "0.1.0"
