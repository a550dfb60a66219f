"""Weight-by-weight verification that the Hecke operator T2 on level-one cusp
forms has an irreducible characteristic polynomial with full symmetric Galois
group (Maeda's conjecture for T2), by randomized multimodular witness search.

The pipeline: exact integer q-expansions build the Miller echelon basis of
the weight-k cusp space (:mod:`maeda.qseries`); the T2 matrix is read off the
basis (:mod:`maeda.hecke`); reductions modulo random primes below 2^20 are
classified by the factorization pattern of their characteristic polynomial
(:mod:`maeda.ffpoly`); witnesses of three kinds certify the weight and are
packaged into certificates (:mod:`maeda.certify`), which are rechecked by
building T2 mod p directly at the witness primes.  The expected
search lengths come from cycle-pattern densities in the symmetric group
(:mod:`maeda.density`), and :mod:`maeda.cli` drives batches.
"""

from .certify import (
    Certificate,
    CheckResult,
    NothingToVerify,
    SearchExhausted,
    Witness,
    check_certificate,
    classify,
    covered_index,
    sample_prime,
    verify_weight,
)
from .density import (
    BoundReport,
    CyclePattern,
    DensityReport,
    all_patterns,
    check_density_bounds,
    cycle_pattern_count,
    density,
    density_I,
    density_II,
    density_III,
    density_IV,
    density_report,
    enumerate_cycle_patterns,
    expected_trials,
    odd_order_count,
    prime_reciprocal_bounds,
    prime_reciprocal_sum,
)
from .ffpoly import (
    MAX_MODULUS,
    charpoly_mod_p,
    distinct_degree_split,
    factorization_pattern,
    is_squarefree,
    reduce_matrix,
)
from .hecke import (
    IntMatrix,
    charpoly_exact,
    dim_cusp_forms,
    hecke_coefficient,
    hecke_matrix_T2,
    hecke_matrix_T2_mod_p,
    hecke_matrix_T2_spanning,
)
from .patterns import Pattern, PrimeType
from .qseries import (
    PrecisionError,
    QSeries,
    delta,
    eisenstein,
    miller_basis,
    miller_basis_mod_p,
    series_add,
    series_mul,
    series_pow,
    spanning_set,
)

__version__ = "0.1.0"
