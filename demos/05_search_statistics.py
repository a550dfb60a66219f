"""Walkthrough: random versus consecutive search, trials over expectation.

Certifies weights 200..330 with both prime-selection strategies, then prints
the N/E summary tables (N = primes tested until a witness, E = 1/density)
and writes the histogram CSVs that a plotting tool can consume.  The random
strategy needs close to the expected number of primes; the consecutive one
pays a large penalty on kind III because small primes are biased.

Run:  python3 demos/05_search_statistics.py
"""

from pathlib import Path

from maeda.cli import RunConfig, cmd_verify
from maeda.report import cmd_stats

base = Path("demo_out_stats")
for mode in ("random", "consecutive"):
    out = base / mode
    print(f"=== verify 200..330, {mode} mode ===")
    assert cmd_verify(RunConfig(k_min=200, k_max=330, out_dir=out,
                                mode=mode, seed=1)) == 0
    print()

for mode in ("random", "consecutive"):
    print(f"=== N/E statistics, {mode} mode ===")
    assert cmd_stats(base / mode) == 0
    print()

print(f"histogram CSVs written under {base}/<mode>/histogram_<kind>.csv")
