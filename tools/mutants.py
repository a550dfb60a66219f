"""Run tier-1 against a catalogue of deliberately wrong copies of ``maeda``.

    python tools/mutants.py

Each mutant is one text substitution in one file of ``src/maeda``: a rule
of the mathematics, of the certificate or of exact arithmetic, broken in a
way that runs without error.  For each, the script copies the repository
(without ``.git`` and caches) into a temporary directory, asserts that the
substituted text occurs exactly once there and replaces it, then runs
tier-1 on the copy with ``python -m pytest -x -q``.  A mutant is killed
when pytest exits with failures and names a failing test; the script
prints, per mutant, that test and the seconds it took, and exits 1 if any
mutant survived, did not apply, or found no failure within
``TIMEOUT_S`` seconds.  One mutant at a time, so one pytest process runs
at any moment.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a mutant that changes only speed can run tier-1 for longer

# (name, file under src/maeda, text, replacement)
MUTANTS = [
    ("hecke: 2^k for 2^(k-1)", "hecke.py",
     "pow(2, k - 1, q)", "pow(2, k, q)"),
    ("kind III: 2l >= d", "certify.py",
     "2 * length > d and is_prime(length)", "2 * length >= d and is_prime(length)"),
    ("kind II: at least one factor of degree 2", "certify.py",
     "pattern.multiplicity(2) == 1", "pattern.multiplicity(2) >= 1"),
    ("E6 sign", "qseries.py",
     "e6 = (-504 * (sigma5", "e6 = (504 * (sigma5"),
    ("MAX_FLOAT_TERMS 2^14", "ffpoly.py",
     "MAX_FLOAT_TERMS = 1 << 13", "MAX_FLOAT_TERMS = 1 << 14"),
    ("_by_traces: p >= d", "ffpoly.py",
     "    return p > d\n", "    return p >= d\n"),
    ("check skips the kind test", "certify.py",
     "if kind not in classify(pattern, d):", "if False:"),
    ("keep the last witness, not the first", "certify.py",
     "witnesses.setdefault(kind, Witness(p, pattern, trials))",
     "witnesses[kind] = Witness(p, pattern, trials)"),
    ("X^p seed read one row off", "ffpoly.py",
     "h = table[s - n].copy()", "h = table[s - n - 1].copy()"),
    ("a polynomial enters F_p unchecked", "ffpoly.py",
     "    check_modulus(p)\n    f = np.asarray(f, dtype=np.int64)\n",
     "    f = np.asarray(f, dtype=np.int64)\n"),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "_work", "demo_out*", "*.egg-info")


def run_mutant(path: str, text: str, replacement: str) -> tuple[str, str, float]:
    """(outcome, first failing test or detail, seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="maeda-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / "src" / "maeda" / path
        source = target.read_text()
        if source.count(text) != 1:
            return "not applied", f"{text!r} occurs {source.count(text)} times in {path}", 0.0
        target.write_text(source.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", f"no failure within {TIMEOUT_S} s", time.perf_counter() - started
        seconds = time.perf_counter() - started
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode in (1, 2) and failed:
        return "killed", failed[0], seconds
    if done.returncode == 0:
        return "survived", "tier-1 passed", seconds
    return "no failing test", f"pytest exit code {done.returncode}", seconds


def main() -> int:
    bad = 0
    for name, path, text, replacement in MUTANTS:
        outcome, detail, seconds = run_mutant(path, text, replacement)
        bad += outcome != "killed"
        print(f"{outcome:>15}  {seconds:6.1f} s  {name}: {detail}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
