"""Batch verification driver, certificate files, and run statistics.

Subcommands:

  verify   certify every even weight in a range, one JSON certificate per
           weight plus a summary.csv (resumable, parallel over weights);
  check    independently recheck a directory of certificates;
  stats    per-weight trials-vs-expected ratios, histograms, and summary
           tables from a directory of certificates;
  density  print the witness-kind density table for a dimension range.

Exit codes: 0 success, 1 verification or check failure, 2 I/O or
configuration error.

Certificate schema (JSON, one object per file, schema_version 1): keys
weight, dimension, mode ("random"|"consecutive"), seed (int or null),
prime_bound, vacuous, witnesses ({kind: {prime, pattern, trial}} with
pattern a [[length, multiplicity], ...] list sorted by length), trials_total
({kind: int} for kinds I/II/III) and duration_ms.  With a fixed seed and
jobs=1 the mathematical content of a rerun is identical; duration_ms is
wall-clock and is the only field that may differ.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .certify import (
    MODES,
    REQUIRED_KINDS,
    Certificate,
    SearchExhausted,
    Witness,
    check_certificate,
    rule_errors,
    verify_weight,
)
from .density import density_report, expected_trials
from .ffpoly import MAX_MODULUS
from .hecke import dim_cusp_forms
from .patterns import Pattern, PrimeType

SCHEMA_VERSION = 1
CERT_PREFIX = "cert_"


@dataclass
class RunConfig:
    """Options for one verification batch."""

    k_min: int
    k_max: int
    out_dir: Path
    mode: str = "random"
    seed: int = 0
    bound: int = MAX_MODULUS
    jobs: int = 1
    resume: bool = False

    def validate(self) -> None:
        if self.k_min > self.k_max:
            raise ValueError(f"empty weight range [{self.k_min}, {self.k_max}]")
        errors = rule_errors(self.k_max, self.mode, self.bound)
        if errors:
            raise ValueError("; ".join(errors.values()))
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    def weights(self) -> list[int]:
        start = self.k_min if self.k_min % 2 == 0 else self.k_min + 1
        return list(range(start, self.k_max + 1, 2))


# ---------------------------------------------------------------------------
# certificate (de)serialization

def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON text for a certificate (stable key and pattern order)."""
    witnesses = {}
    for kind in PrimeType:
        w = cert.witnesses.get(kind)
        if w is not None:
            witnesses[kind.value] = {
                "prime": w.prime,
                "pattern": [[length, mult] for length, mult in w.pattern.parts],
                "trial": w.trial,
            }
    payload = {
        "weight": cert.weight,
        "dimension": cert.dimension,
        "mode": cert.mode,
        "seed": cert.seed,
        "prime_bound": cert.prime_bound,
        "vacuous": cert.vacuous,
        "witnesses": witnesses,
        "trials_total": {k.value: cert.trials_total.get(k, 0) for k in REQUIRED_KINDS},
        "duration_ms": cert.duration_ms,
        "schema_version": SCHEMA_VERSION,
    }
    text = json.dumps(payload, indent=2)
    # keep each [degree, multiplicity] pair on one line
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)
    return text + "\n"


def _get(obj: dict, key: str, *types: type):
    # obj[key], which must be exactly one of the JSON types given: a bool is
    # no int here, and a float (even 1e400) is no weight
    value = obj[key]
    if type(value) not in types:
        raise ValueError(f"{key} must be {' or '.join(t.__name__ for t in types)}")
    return value


def _pattern(pairs: list) -> Pattern:
    if not all(
        type(pair) is list and len(pair) == 2 and all(type(n) is int for n in pair)
        for pair in pairs
    ):
        raise ValueError("pattern must be a list of [length, multiplicity] integer pairs")
    return Pattern.from_pairs(pairs)


def certificate_from_json(text: str) -> Certificate:
    """Parse certificate JSON; raises ValueError on malformed input."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    try:
        totals = _get(payload, "trials_total", dict)
        witnesses = {}
        for name, blob in _get(payload, "witnesses", dict).items():
            witnesses[PrimeType(name)] = Witness(
                prime=_get(blob, "prime", int),
                pattern=_pattern(_get(blob, "pattern", list)),
                trial=_get(blob, "trial", int),
            )
        return Certificate(
            weight=_get(payload, "weight", int),
            dimension=_get(payload, "dimension", int),
            mode=_get(payload, "mode", str),
            seed=_get(payload, "seed", int, type(None)),
            prime_bound=_get(payload, "prime_bound", int),
            vacuous=_get(payload, "vacuous", bool),
            witnesses=witnesses,
            trials_total={PrimeType(name): _get(totals, name, int) for name in totals},
            duration_ms=_get(payload, "duration_ms", int),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc


def certificate_path(out_dir: Path, weight: int) -> Path:
    return Path(out_dir) / f"{CERT_PREFIX}{weight}.json"


def write_certificate(path: Path, cert: Certificate) -> None:
    """Write atomically: to a temporary file beside ``path`` that never
    matches ``cert_*.json``, then renamed over it, so no reader sees a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(certificate_to_json(cert), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_certificate(path: Path) -> Certificate:
    return certificate_from_json(Path(path).read_text(encoding="utf-8"))


def load_certificates(directory: Path) -> list[tuple[Path, Certificate | ValueError]]:
    """All cert_*.json files in a directory, parsed or their parse error."""
    directory = Path(directory)
    out: list[tuple[Path, Certificate | ValueError]] = []
    for path in sorted(directory.glob(f"{CERT_PREFIX}*.json"), key=_cert_sort_key):
        try:
            out.append((path, read_certificate(path)))
        except ValueError as exc:
            out.append((path, exc))
    return out


def _cert_sort_key(path: Path) -> tuple[int, str]:
    stem = path.stem.removeprefix(CERT_PREFIX)
    return (int(stem), "") if stem.isdigit() else (1 << 62, path.name)


# ---------------------------------------------------------------------------
# verify

def _verify_task(args: tuple[int, str, int, int, str, bool]) -> dict:
    """Verify one weight and write its certificate; returns a summary row."""
    k, mode, seed, bound, out_dir, resume = args
    d = dim_cusp_forms(k)
    row = {"weight": k, "dimension": d, "status": "", "mode": mode,
           "witnesses": {}, "trials": {}, "duration_ms": ""}
    if d == 0:
        row["status"] = "vacuous"
        return row
    path = certificate_path(Path(out_dir), k)
    cert = None
    if resume and path.exists():
        try:
            existing = read_certificate(path)
            asked = (k, mode, seed if mode == "random" else None, bound)
            found = (existing.weight, existing.mode, existing.seed, existing.prime_bound)
            if found == asked and check_certificate(existing):
                cert = existing
                row["cached"] = True
        except ValueError:
            cert = None
    if cert is None:
        try:
            cert = verify_weight(k, mode=mode, seed=seed, bound=bound)
        except SearchExhausted as exc:
            row["status"] = "exhausted"
            row["error"] = str(exc)
            return row
        write_certificate(path, cert)
    row["status"] = "certified"
    row["witnesses"] = {t.value: w.prime for t, w in cert.witnesses.items()}
    row["trials"] = {t.value: n for t, n in cert.trials_total.items()}
    row["duration_ms"] = cert.duration_ms
    return row


def _run_tasks(tasks: list[tuple], jobs: int) -> Iterator[dict]:
    # rows in task (weight) order, each as soon as it and those before it are done
    if jobs == 1:
        yield from map(_verify_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_verify_task, tasks)


def cmd_verify(config: RunConfig) -> int:
    """Certify a weight range; certificates plus summary.csv in the out dir."""
    try:
        config.validate()
        config.out_dir = Path(config.out_dir)
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tasks = [
        (k, config.mode, config.seed, config.bound, str(config.out_dir), config.resume)
        for k in config.weights()
    ]
    rows = []
    try:
        for row in _run_tasks(tasks, config.jobs):
            print(_describe_row(row), flush=True)  # progress: one row per weight done
            rows.append(row)
        _write_summary(config.out_dir / "summary.csv", rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in rows if r["status"] == "exhausted"]
    certified = sum(1 for r in rows if r["status"] == "certified")
    vacuous = sum(1 for r in rows if r["status"] == "vacuous")
    print(f"{certified} weight(s) certified, {vacuous} with empty cusp space, "
          f"{len(failed)} failed")
    return 1 if failed else 0


def _describe_row(row: dict) -> str:
    k, d, status = row["weight"], row["dimension"], row["status"]
    if status == "vacuous":
        return f"k={k:>5}  d={d:<3} vacuous (no cusp forms)"
    if status == "exhausted":
        return f"k={k:>5}  d={d:<3} FAILED: {row.get('error', 'search exhausted')}"
    label = "cached" if row.get("cached") else status
    wit = " ".join(f"{t}={p}" for t, p in sorted(row["witnesses"].items()))
    return f"k={k:>5}  d={d:<3} {label:<9} {wit}"


def _write_summary(path: Path, rows: Iterable[dict]) -> None:
    fields = ["weight", "dimension", "status",
              "witness_I", "witness_II", "witness_III", "witness_IV",
              "trials_I", "trials_II", "trials_III", "duration_ms"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([
                row["weight"], row["dimension"], row["status"],
                *(row["witnesses"].get(t, "") for t in ("I", "II", "III", "IV")),
                *(row["trials"].get(t, "") for t in ("I", "II", "III")),
                row["duration_ms"],
            ])


# ---------------------------------------------------------------------------
# check

def cmd_check(directory: Path) -> int:
    """Recheck every certificate in a directory; 0 iff all pass."""
    directory = Path(directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    entries = load_certificates(directory)
    if not entries:
        print(f"warning: 0 certificates in {directory}")
        return 0
    failures = 0
    for path, cert in entries:
        if isinstance(cert, ValueError):
            print(f"{path.name}: FAIL ({cert})")
            failures += 1
            continue
        try:
            result = check_certificate(cert)
        except ValueError as exc:  # e.g. a weight too large to build a basis for
            print(f"{path.name}: FAIL ({exc})")
            failures += 1
            continue
        if result:
            print(f"{path.name}: ok (k={cert.weight}, d={cert.dimension})")
        else:
            print(f"{path.name}: FAIL ({'; '.join(result.reasons)})")
            failures += 1
    print(f"{len(entries) - failures}/{len(entries)} certificates pass")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# stats

@dataclass(frozen=True)
class RatioRow:
    """Trials-to-expectation ratio for one witness kind of one certificate."""

    weight: int
    dimension: int
    mode: str
    kind: PrimeType
    trials: int
    expected: float

    @property
    def ratio(self) -> float:
        return self.trials / self.expected


def ratio_rows(certs: Iterable[Certificate]) -> list[RatioRow]:
    """N/E rows for kinds I/II/III of every non-vacuous certificate.

    Vacuous (dimension-1) certificates are skipped: their searches are
    degenerate and the densities are not defined at d = 1.
    """
    rows = []
    for cert in certs:
        if cert.dimension < 2:
            continue
        for kind in REQUIRED_KINDS:
            witness = cert.witnesses.get(kind)
            if witness is None:
                continue
            try:
                expected = expected_trials(kind, cert.dimension)
            except ValueError:  # kind II has no defined density at d = 2
                continue
            rows.append(RatioRow(
                weight=cert.weight,
                dimension=cert.dimension,
                mode=cert.mode,
                kind=kind,
                trials=witness.trial,
                expected=expected,
            ))
    rows.sort(key=lambda r: (r.weight, r.kind.value))
    return rows


def ratio_summary(rows: Sequence[RatioRow]) -> dict[tuple[str, PrimeType], dict[str, float]]:
    """min/max/median/mean of N/E per (mode, kind)."""
    grouped: dict[tuple[str, PrimeType], list[float]] = {}
    for row in rows:
        grouped.setdefault((row.mode, row.kind), []).append(row.ratio)
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


def _histogram(values: Iterable[float], width: float = 0.1) -> list[tuple[float, float, int]]:
    counts: dict[int, int] = {}
    for v in values:
        counts[math.floor(v / width)] = counts.get(math.floor(v / width), 0) + 1
    return [(i * width, (i + 1) * width, counts[i]) for i in sorted(counts)]


def cmd_stats(directory: Path, out_dir: Path | None = None) -> int:
    """Write stats.csv and per-kind N/E histograms; print summary tables."""
    directory = Path(directory)
    out_dir = Path(out_dir) if out_dir is not None else directory
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    certs = []
    for path, cert in load_certificates(directory):
        if isinstance(cert, ValueError):
            print(f"warning: skipping {path.name} ({cert})", file=sys.stderr)
        else:
            certs.append(cert)
    rows = ratio_rows(certs)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "stats.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["weight", "dimension", "mode", "kind",
                             "trials", "expected", "ratio"])
            for r in rows:
                writer.writerow([r.weight, r.dimension, r.mode, r.kind.value,
                                 r.trials, f"{r.expected:.6f}", f"{r.ratio:.6f}"])
        for kind in REQUIRED_KINDS:
            with open(out_dir / f"histogram_{kind.value}.csv", "w", newline="",
                      encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["mode", "bin_low", "bin_high", "count"])
                for mode in sorted({r.mode for r in rows}):
                    values = [r.ratio for r in rows if r.kind == kind and r.mode == mode]
                    for lo, hi, count in _histogram(values):
                        writer.writerow([mode, f"{lo:.1f}", f"{hi:.1f}", count])
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
        header = "        " + "".join(f"{mode:>14}" for mode, _ in blocks)
        print(header)
        print("        " + "".join(f"{'(' + str(int(s['count'])) + ' wts)':>14}"
                                   for _, s in blocks))
        for stat in ("min", "max", "med", "mean"):
            line = f"  {stat:<6}" + "".join(f"{s[stat]:>14.2f}" for _, s in blocks)
            print(line)
    print(f"\n{len(rows)} ratio rows from {len(certs)} certificate(s) -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# density

def _fmt_fraction(x: Fraction | None) -> str:
    if x is None:
        return "-"
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_density(d_min: int, d_max: int) -> int:
    """Print exact/float densities, expected trials, and bound status."""
    if not 1 <= d_min <= d_max:
        print(f"error: need 1 <= d_min <= d_max, got [{d_min}, {d_max}]",
              file=sys.stderr)
        return 2
    header = (f"{'d':>5}  {'D_I':>12} {'D_II':>16} {'D_III':>16} {'D_IV':>12}  "
              f"{'E_I':>8} {'E_II':>8} {'E_III':>8}  {'II>1/(4*sqrt d)':>16} "
              f"{'III>1/(3*log d)':>16}")
    print(header)
    for d in range(d_min, d_max + 1):
        report = density_report(d)

        def cell(kind: PrimeType, width: int) -> str:
            exact = report.exact[kind]
            if exact is None:
                return f"{'-':>{width}}"
            return f"{_fmt_fraction(exact):>{width - 7}}={float(exact):6.4f}"

        def trials_cell(kind: PrimeType) -> str:
            t = report.trials[kind]
            return f"{t:8.2f}" if t is not None else f"{'-':>8}"

        dii = report.approx[PrimeType.II]
        diii = report.approx[PrimeType.III]
        ii_ok = "-" if dii is None else ("ok" if dii > report.bound_II else "VIOLATED")
        iii_ok = "-" if (diii is None or d <= 10) else (
            "ok" if diii > report.bound_III else "VIOLATED")
        print(f"{d:>5}  {cell(PrimeType.I, 12)} {cell(PrimeType.II, 16)} "
              f"{cell(PrimeType.III, 16)} {cell(PrimeType.IV, 12)}  "
              f"{trials_cell(PrimeType.I)} {trials_cell(PrimeType.II)} "
              f"{trials_cell(PrimeType.III)}  {ii_ok:>16} {iii_ok:>16}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maeda",
        description="Verify, per weight, that the Hecke operator T2 on level-one "
                    "cusp forms has an irreducible characteristic polynomial with "
                    "full symmetric Galois group, via witness primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify a range of even weights")
    p_verify.add_argument("--from", dest="k_min", type=int, required=True,
                          metavar="K", help="first weight (inclusive)")
    p_verify.add_argument("--to", dest="k_max", type=int, required=True,
                          metavar="K", help="last weight (inclusive)")
    p_verify.add_argument("--mode", choices=MODES,
                          default="random", help="prime selection strategy")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="global seed for random mode (default 0)")
    p_verify.add_argument("--bound", type=int, default=MAX_MODULUS,
                          help="primes are drawn below this bound (default 2^20)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel worker processes, one weight each")
    p_verify.add_argument("--out", type=Path,
                          default=os.environ.get("MAEDA_OUT"),
                          help="output directory (or set MAEDA_OUT)")
    p_verify.add_argument("--resume", action="store_true",
                          help="skip weights whose certificate exists, passes check, "
                               "and has the same mode, seed and bound")

    p_check = sub.add_parser("check", help="recheck a directory of certificates")
    p_check.add_argument("directory", type=Path)

    p_stats = sub.add_parser("stats", help="N/E statistics and histograms")
    p_stats.add_argument("directory", type=Path)
    p_stats.add_argument("--out", type=Path, default=None,
                         help="where to write CSVs (default: the input directory)")

    p_density = sub.add_parser("density", help="witness-kind density table")
    p_density.add_argument("--from", dest="d_min", type=int, required=True,
                           metavar="D", help="first dimension (inclusive)")
    p_density.add_argument("--to", dest="d_max", type=int, required=True,
                           metavar="D", help="last dimension (inclusive)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        if args.out is None:
            print("error: --out is required (or set MAEDA_OUT)", file=sys.stderr)
            return 2
        config = RunConfig(
            k_min=args.k_min, k_max=args.k_max, out_dir=Path(args.out),
            mode=args.mode, seed=args.seed, bound=args.bound,
            jobs=args.jobs, resume=args.resume,
        )
        return cmd_verify(config)
    if args.command == "check":
        return cmd_check(args.directory)
    if args.command == "stats":
        return cmd_stats(args.directory, args.out)
    if args.command == "density":
        return cmd_density(args.d_min, args.d_max)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
