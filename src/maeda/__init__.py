"""Weight-by-weight verification that the Hecke operator T2 on level-one cusp
forms has an irreducible characteristic polynomial with full symmetric Galois
group (Maeda's conjecture for T2), by randomized multimodular witness search.

The pipeline, at each prime p < 2^20 it tests: q-expansions mod p build the
Miller echelon basis of the weight-k cusp space (:mod:`maeda.qseries`); the
T2 matrix mod p is read off the basis (:mod:`maeda.hecke`); each prime is
classified by the factorization pattern of the characteristic polynomial
(:mod:`maeda.ffpoly`); witnesses of three kinds certify the weight and are
packaged into certificates (:mod:`maeda.certify`), which are rechecked by
the same steps at the witness primes only.  The expected search lengths
come from cycle-pattern densities in the symmetric group
(:mod:`maeda.density`), and :mod:`maeda.cli` drives batches.  The exact
big-integer path and the brute-force enumeration of S_d, the tests'
references, are in :mod:`maeda.oracles`; it is not re-exported here.
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
    check_density_bounds,
    cycle_pattern_count,
    density,
    density_I,
    density_II,
    density_III,
    density_IV,
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
from .hecke import dim_cusp_forms, hecke_matrix_T2
from .patterns import Pattern, PrimeType
from .qseries import miller_basis, spanning_set

__version__ = "0.1.0"
