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
references, are in :mod:`maeda.oracles`.  The top level re-exports the
search, the recheck and the steps of one trial; everything else is imported
from its module.
"""

from .certify import check_certificate, verify_weight
from .ffpoly import charpoly_mod_p, factorization_pattern, is_squarefree
from .hecke import hecke_matrix_T2

__version__ = "0.1.0"
