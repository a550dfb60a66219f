"""Batch verification driver, certificate files, and the command line.

Subcommands:

  verify   certify every even weight in a range, one JSON certificate per
           weight plus a summary.csv (resumable, parallel over weights);
  check    independently recheck a directory of certificates;
  stats    per-weight trials-vs-expected ratios, histograms, and summary
           tables from a directory of certificates;
  density  print the witness-kind density table for a dimension range.

``stats`` and ``density`` live in :mod:`maeda.report`, which only they
import.

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
import gc
import json
import os
import re
import sys
from collections import Counter
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .certify import (
    MODES,
    REQUIRED_KINDS,
    Certificate,
    SearchExhausted,
    Witness,
    check_certificate,
    header_error,
    rule_errors,
    verify_weight,
)
from .ffpoly import MAX_MODULUS
from .hecke import dim_cusp_forms
from .patterns import Pattern, PrimeType

SCHEMA_VERSION = 1
CERT_PREFIX = "cert_"
SUMMARY_FIELDS = ["weight", "dimension", "status", *(f"witness_{t}" for t in PrimeType),
                  *(f"trials_{t}" for t in REQUIRED_KINDS), "duration_ms"]
# write_certificate's temporary file: .cert_<weight>.json.<pid>.tmp
_TEMP_FILE = re.compile(rf"\.{CERT_PREFIX}\d+\.json\.(\d+)\.tmp")


class RunConfig(NamedTuple):
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
        if self.k_min < 0:
            raise ValueError(f"weights start at 0, got {self.k_min}")
        if self.k_min > self.k_max:
            raise ValueError(f"empty weight range [{self.k_min}, {self.k_max}]")
        errors = rule_errors(self.k_max, self.mode, self.bound)
        if errors:
            raise ValueError("; ".join(errors.values()))
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    def weights(self) -> list[int]:
        return list(range(self.k_min + self.k_min % 2, self.k_max + 1, 2))


# ---------------------------------------------------------------------------
# certificate (de)serialization

def certificate_to_json(cert: Certificate) -> str:
    """Canonical JSON text for a certificate (stable key and pattern order)."""
    witnesses = {
        kind.value: {"prime": w.prime, "pattern": [list(part) for part in w.pattern.parts],
                     "trial": w.trial}
        for kind in PrimeType if (w := cert.witnesses.get(kind)) is not None
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


def misfiled(path: Path, cert: Certificate) -> str | None:
    # why cert's file is not cert_<weight>.json, or None; a refused header keeps its one reason
    expected = certificate_path(path.parent, cert.weight).name
    filed = path.name == expected or header_error(cert) is not None
    return None if filed else f"file name is not {expected}"


def load_certificates(directory: Path) -> list[tuple[Path, Certificate | ValueError]]:
    """All cert_*.json files in a directory, parsed or their parse error.

    A file that cannot be read (a directory, a dangling link) gets a
    ValueError too, so each caller reports it and goes on.
    """
    directory = Path(directory)
    out: list[tuple[Path, Certificate | ValueError]] = []
    for path in sorted(directory.glob(f"{CERT_PREFIX}*.json"), key=_cert_sort_key):
        try:
            out.append((path, read_certificate(path)))
        except ValueError as exc:
            out.append((path, exc))
        except OSError as exc:
            out.append((path, ValueError(f"cannot read: {exc.strerror or exc}")))
    return out


def _cert_sort_key(path: Path) -> tuple[int, str]:
    stem = path.stem.removeprefix(CERT_PREFIX)
    return (int(stem), "") if stem.isdigit() else (1 << 62, path.name)


# ---------------------------------------------------------------------------
# verify

class WeightResult(NamedTuple):
    """One weight's certificate, or why it has none: an empty cusp space, or
    the message of :class:`SearchExhausted`, whose ``__init__`` does not
    survive the pickling that ``--jobs`` puts every result through."""

    weight: int
    dimension: int
    cert: Certificate | None = None
    error: str | None = None
    cached: bool = False

    @property
    def status(self) -> str:
        return "exhausted" if self.error else "vacuous" if self.cert is None else "certified"


def _verify_task(k: int, config: RunConfig) -> WeightResult:
    """Verify one weight and write its certificate."""
    d = dim_cusp_forms(k)
    if d == 0:
        return WeightResult(k, d)
    path = certificate_path(config.out_dir, k)
    if config.resume and path.exists():
        asked = (k, config.mode, config.seed if config.mode == "random" else None,
                 config.bound)
        try:
            cert = read_certificate(path)
            if (cert.weight, cert.mode, cert.seed, cert.prime_bound) == asked and \
                    check_certificate(cert):
                return WeightResult(k, d, cert, cached=True)
        except ValueError:
            pass
    try:
        cert = verify_weight(k, mode=config.mode, seed=config.seed, bound=config.bound)
    except SearchExhausted as exc:
        return WeightResult(k, d, error=str(exc))
    write_certificate(path, cert)
    return WeightResult(k, d, cert)


def _run_tasks(config: RunConfig) -> Iterator[WeightResult]:
    # results in weight order, each as soon as it and those before it are done
    weights = config.weights()
    # under fork, the pool starts all its workers at the first submit
    jobs = min(config.jobs, len(weights))
    if jobs <= 1:
        yield from (_verify_task(k, config) for k in weights)
        return
    from concurrent.futures import ProcessPoolExecutor  # about 20-30 ms to import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_verify_task, weights, repeat(config))


def _remove_stale_temp_files(out_dir: Path) -> None:
    # a killed verify leaves the temporary file of write_certificate; remove
    # those whose writer's pid is no live process
    for path in out_dir.glob(f".{CERT_PREFIX}*.tmp"):
        match = _TEMP_FILE.fullmatch(path.name)
        if not match:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            path.unlink(missing_ok=True)
        except (PermissionError, OverflowError):
            pass  # alive under another user, or no valid pid: leave it


def cmd_verify(config: RunConfig) -> int:
    """Certify a weight range; certificates plus summary.csv in the out dir."""
    try:
        config.validate()
        config = config._replace(out_dir=Path(config.out_dir))
        config.out_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_temp_files(config.out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = []
    try:
        for result in _run_tasks(config):
            print(_describe(result), flush=True)  # progress: one row per weight done
            results.append(result)
        _write_csv(config.out_dir / "summary.csv", SUMMARY_FIELDS, map(_summary_row, results))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tally = Counter(result.status for result in results)
    print(f"{tally['certified']} weight(s) certified, {tally['vacuous']} with empty cusp "
          f"space, {tally['exhausted']} failed")
    return 1 if tally["exhausted"] else 0


def _describe(result: WeightResult) -> str:
    head = f"k={result.weight:>5}  d={result.dimension:<3}"
    if result.status == "vacuous":
        return f"{head} vacuous (no cusp forms)"
    if result.status == "exhausted":
        return f"{head} FAILED: {result.error}"
    found = " ".join(f"{t}={w.prime}" for t in PrimeType if (w := result.cert.witnesses.get(t)))
    return f"{head} {'cached' if result.cached else 'certified':<9} {found}"


def _summary_row(result: WeightResult) -> list:
    cert = result.cert
    witnesses = cert.witnesses if cert else {}
    trials = cert.trials_total if cert else {}
    return [result.weight, result.dimension, result.status,
            *(witnesses[t].prime if t in witnesses else "" for t in PrimeType),
            *(trials.get(t, "") for t in REQUIRED_KINDS),
            cert.duration_ms if cert else ""]


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# check

def cmd_check(directory: Path) -> int:
    """Recheck every certificate in a directory; 0 iff all pass.

    A certificate passes only in the file named for the weight it holds,
    ``cert_<weight>.json``: one copied over another weight's file fails.
    """
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
            reasons = list(check_certificate(cert).reasons)
        except ValueError as exc:  # e.g. a weight too large to build a basis for
            reasons = [str(exc)]
        if error := misfiled(path, cert):  # after the recheck's own reasons
            reasons.append(error)
        if reasons:
            print(f"{path.name}: FAIL ({'; '.join(reasons)})")
            failures += 1
        else:
            print(f"{path.name}: ok (k={cert.weight}, d={cert.dimension})")
    print(f"{len(entries) - failures}/{len(entries)} certificates pass")
    return 1 if failures else 0


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
    p_verify.add_argument("--out", dest="out_dir", type=Path,
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
        if args.out_dir is None:
            print("error: --out is required (or set MAEDA_OUT)", file=sys.stderr)
            return 2
        return cmd_verify(RunConfig(**{name: getattr(args, name) for name in RunConfig._fields}))
    if args.command == "check":
        return cmd_check(args.directory)
    if args.command == "stats":
        from .report import cmd_stats

        return cmd_stats(args.directory, args.out)
    if args.command == "density":
        from .report import cmd_density

        return cmd_density(args.d_min, args.d_max)
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    """Process entry point of ``maeda`` and ``python -m maeda.cli``: main, then exit."""
    code = main()
    # Move every live object into the collector's permanent generation, so
    # that shutdown skips its final cyclic-GC passes over the ~22k objects
    # the imports made: most of a short process's exit time (README, "Where
    # a process's time goes").  Unlike os._exit, shutdown still runs atexit
    # handlers and flushes stdout and stderr; only objects held in reference
    # cycles go unfinalized, and every file this package opens is closed
    # before main returns.  main itself leaves the collector alone, since
    # tests and library callers run it in-process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
