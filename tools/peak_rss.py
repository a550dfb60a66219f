"""Median peak resident set of fresh ``python -m maeda.cli`` processes.

    python tools/peak_rss.py [--runs N] [--checkout DIR [--checkout DIR]] COMMAND...

Each COMMAND is one quoted string of ``maeda`` arguments, such as
"verify --from 12 --to 12 --seed 1".  One that starts with "python" runs
the interpreter with the rest instead, such as "python -c 'import numpy'".
Every run is a new process with PYTHONPATH set to a checkout's ``src/``
(by default the checkout holding this script), started in a new empty
directory, so relative output paths vanish with it.  Its peak is the
``ru_maxrss`` that ``os.wait4`` returns.

A child's peak counts the image it was forked from, so this script imports
no numpy.  The N runs of a command alternate between the checkouts, the
first one first in even rounds.  The environment passes through: set
PYTHONDONTWRITEBYTECODE=1 to make every process compile maeda.

Prints one line per command: the median in MB per checkout, and with two
checkouts the second minus the first.  Exit codes other than 0 are named.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_mb(checkout: Path, command: str) -> tuple[float, int]:
    """(ru_maxrss in MB, exit code) of one fresh process running ``command``."""
    args = shlex.split(command)
    argv = args[1:] if args[:1] == ["python"] else ["-m", "maeda.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024, proc.returncode  # Linux gives KiB


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", metavar="COMMAND")
    parser.add_argument("--runs", type=int, default=9, help="runs per command and checkout")
    parser.add_argument("--checkout", type=Path, action="append",
                        help="a checkout to run, given once or twice (default: this one)")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    if len(checkouts) > 2 or args.runs < 1:
        parser.error("need one or two checkouts and at least one run")

    print(f"peak RSS in MB, median of {args.runs} runs per checkout, alternating:")
    for i, checkout in enumerate(checkouts):
        print(f"  {'AB'[i]} = {checkout}")
    for command in args.commands:
        peaks: dict[Path, list[float]] = {checkout: [] for checkout in checkouts}
        codes: dict[Path, set[int]] = {checkout: set() for checkout in checkouts}
        for run in range(args.runs):
            for checkout in checkouts if run % 2 == 0 else checkouts[::-1]:
                mb, code = peak_mb(checkout, command)
                peaks[checkout].append(mb)
                codes[checkout].add(code)
        medians = [statistics.median(peaks[checkout]) for checkout in checkouts]
        cells = [f"{m:8.2f}" for m in medians]
        if len(medians) == 2:
            cells.append(f"{medians[1] - medians[0]:+8.2f}")
        note = ""
        if any(found != {0} for found in codes.values()):
            note = "  (exit codes " + ", ".join(
                f"{'AB'[i]} {sorted(codes[checkout])}" for i, checkout in enumerate(checkouts)) + ")"
        print(f"{''.join(cells)}  {command}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
