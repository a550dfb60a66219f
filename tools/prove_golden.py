"""Recheck every golden certificate with the independent checker.

    python tools/prove_golden.py

``test_certificates_are_golden`` pins the certificates in
``tests/golden/certificates_*.jsonl`` byte for byte; this script proves
them.  Each line goes through ``check_certificate`` of
``perfbench/oracle.py``, which shares no code with ``maeda``, with the mode
and seed that its file name records: ``certificates_random_..._seed_<s>``
or ``certificates_consecutive_...``.  It prints every problem found and a
summary line, and exits 1 on any problem or if no certificate was read.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402


def search_of(path: Path) -> tuple[str, int | None]:
    """(mode, seed) that the golden file at ``path`` was made with."""
    mode = path.stem.split("_")[1]
    if mode == "consecutive":
        return mode, None
    return mode, int(path.stem.rsplit("_seed_", 1)[1])


def main() -> int:
    started = time.perf_counter()
    lines = problems = 0
    for path in sorted((ROOT / "tests" / "golden").glob("certificates_*.jsonl")):
        mode, seed = search_of(path)
        for line in path.read_text().splitlines():
            lines += 1
            for problem in oracle.check_certificate(line, mode, seed):
                problems += 1
                print(f"{path.name}: {problem}", flush=True)
    print(f"{lines} golden certificates, {problems} problems, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if problems or not lines else 0


if __name__ == "__main__":
    sys.exit(main())
