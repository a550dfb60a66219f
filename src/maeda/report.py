"""The ``stats`` and ``density`` subcommands of :mod:`maeda.cli`.

Only those two commands import this module, so a ``verify`` or ``check``
process never compiles it, nor loads :mod:`maeda.density`, ``statistics``
or ``fractions``.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .certify import MAX_WEIGHT, REQUIRED_KINDS, Certificate, header_error
from .cli import _write_csv, load_certificates, misfiled
from .density import density, expected_trials, lower_bound
from .hecke import dim_cusp_forms
from .patterns import PrimeType

__all__ = ["ratio_rows", "ratio_summary", "cmd_stats", "cmd_density"]


def ratio_rows(certs: Iterable[Certificate]) -> list[tuple[Certificate, PrimeType, float]]:
    """(certificate, kind, expected trials) for kinds I/II/III of every
    certificate, where defined, in weight order.

    A kind gets no row at a dimension outside the domain of its density:
    vacuous (dimension-1) certificates get none, and kind II none at d = 2.
    """
    rows = []
    for cert in certs:
        for kind in REQUIRED_KINDS:
            if kind not in cert.witnesses:
                continue
            try:
                rows.append((cert, kind, expected_trials(kind, cert.dimension)))
            except ValueError:  # outside the domain of the density
                continue
    rows.sort(key=lambda row: (row[0].weight, row[1].value))
    return rows


def ratio_summary(rows: Iterable[tuple[Certificate, PrimeType, float]]
                  ) -> dict[tuple[str, PrimeType], dict[str, float]]:
    """min/max/median/mean of N/E per (mode, kind)."""
    grouped: dict[tuple[str, PrimeType], list[float]] = {}
    for cert, kind, expected in rows:
        grouped.setdefault((cert.mode, kind), []).append(cert.witnesses[kind].trial / expected)
    return {
        key: {
            "count": len(vals),
            "min": min(vals),
            "max": max(vals),
            "med": statistics.median(vals),
            "mean": statistics.fmean(vals),
        }
        for key, vals in grouped.items()
    }


def cmd_stats(directory: Path, out_dir: Path | None = None) -> int:
    """Write stats.csv and per-kind N/E histograms; print summary tables."""
    directory = Path(directory)
    out_dir = Path(out_dir) if out_dir is not None else directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    certs = []
    for path, cert in load_certificates(directory):
        # a wrong dimension would put rows under the wrong d, a huge one hang in the
        # densities' factorials, and a copy under another weight's name count twice
        error = cert if isinstance(cert, ValueError) else header_error(cert) or misfiled(path, cert)
        if error:
            print(f"warning: skipping {path.name} ({error})", file=sys.stderr)
        else:
            certs.append(cert)
    rows = ratio_rows(certs)
    lines = []
    width = 0.1  # of a histogram bin of N/E
    bins: dict[PrimeType, Counter[tuple[str, int]]] = {kind: Counter() for kind in REQUIRED_KINDS}
    for cert, kind, expected in rows:
        trials = cert.witnesses[kind].trial
        lines.append([cert.weight, cert.dimension, cert.mode, kind.value,
                      trials, f"{expected:.6f}", f"{trials / expected:.6f}"])
        bins[kind][cert.mode, math.floor(trials / expected / width)] += 1
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "stats.csv", ["weight", "dimension", "mode", "kind",
                                           "trials", "expected", "ratio"], lines)
        for kind, counts in bins.items():
            _write_csv(out_dir / f"histogram_{kind.value}.csv",
                       ["mode", "bin_low", "bin_high", "count"],
                       ([mode, f"{i * width:.1f}", f"{(i + 1) * width:.1f}", count]
                        for (mode, i), count in sorted(counts.items())))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = ratio_summary(rows)
    modes = sorted({mode for mode, _ in summary})
    for kind in REQUIRED_KINDS:
        blocks = [(mode, summary[(mode, kind)]) for mode in modes if (mode, kind) in summary]
        if not blocks:
            continue
        print(f"\nkind {kind.value}: trials / expected trials")
        print("        " + "".join(f"{mode:>14}" for mode, _ in blocks))
        print("        " + "".join(f"{'(' + str(int(s['count'])) + ' wts)':>14}"
                                   for _, s in blocks))
        for stat in ("min", "max", "med", "mean"):
            print(f"  {stat:<6}" + "".join(f"{s[stat]:>14.2f}" for _, s in blocks))
    print(f"\n{len(rows)} ratio rows from {len(certs)} certificate(s) -> {out_dir}")
    return 0


def cmd_density(d_min: int, d_max: int) -> int:
    """Print exact/float densities, expected trials, and bound status.

    d_max is capped at the dimension at :data:`~maeda.certify.MAX_WEIGHT`,
    the weights ``check`` accepts: far above it the exact D_II has more
    digits than Python converts to a string.
    """
    if not 1 <= d_min <= d_max:
        print(f"error: need 1 <= d_min <= d_max, got [{d_min}, {d_max}]",
              file=sys.stderr)
        return 2
    d_cap = dim_cusp_forms(MAX_WEIGHT)
    if d_max > d_cap:
        print(f"error: d_max {d_max} above {d_cap}, the dimension at weight {MAX_WEIGHT}",
              file=sys.stderr)
        return 2
    header = (f"{'d':>5}  {'D_I':>12} {'D_II':>16} {'D_III':>16} {'D_IV':>12}  "
              f"{'E_I':>8} {'E_II':>8} {'E_III':>8}  {'II>1/(4*sqrt d)':>16} "
              f"{'III>1/(3*log d)':>16}")
    print(header)
    widths = {PrimeType.I: 12, PrimeType.II: 16, PrimeType.III: 16, PrimeType.IV: 12}
    for d in range(d_min, d_max + 1):
        exact: dict[PrimeType, Fraction] = {}
        for kind in PrimeType:
            try:
                exact[kind] = density(kind, d)
            except ValueError:  # outside the domain of the density: "-"
                pass
        cells = [f"{exact[kind]!s:>{w - 7}}={float(exact[kind]):6.4f}" if kind in exact
                 else f"{'-':>{w}}" for kind, w in widths.items()]
        trials = [f"{expected_trials(kind, d):8.2f}" if kind in exact else f"{'-':>8}"
                  for kind in REQUIRED_KINDS]
        checks = []
        for kind in (PrimeType.II, PrimeType.III):
            bound = lower_bound(kind, d)
            checks.append("-" if bound is None else
                          "ok" if float(exact[kind]) > bound else "VIOLATED")
        print(f"{d:>5}  {' '.join(cells)}  {' '.join(trials)}  "
              f"{checks[0]:>16} {checks[1]:>16}")
    return 0
