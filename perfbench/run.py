"""Benchmark of `maeda verify` followed by `maeda check`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its `src/`.
Every measured command is a fresh `python3 -m maeda.cli` process run with
`--jobs 1`.  A run first times `setup_s`, then repeats whole rounds of
(verify the workload's weights, check the directory they were written to)
until S seconds have passed, at least twice, and reports medians.  Every
certificate is checked by `oracle.py`, which shares no code with maeda, and
every round must reproduce the first round's certificates apart from
`duration_ms`.

The speed of a shared machine swings by 20-30% in phases of 10-20 s, so
each timed process is bracketed by a fixed calibration loop, and its wall
time is reported scaled to the speed at which that loop takes
CALIBRATION_REF_S: wall * CALIBRATION_REF_S / (calibration time around it).
The raw wall times are in the report line.

With `--trace 1` each round is followed by the same commands run through
`trace_child.py`, and the per-layer figures of the traced rounds are
reported instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
is a report naming the seed, the weights, the machine and the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import sympy

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 5
MIN_ROUNDS = 2
# share of the traced wall time that no named layer may exceed
UNEXPLAINED_TOLERANCE = 0.05
# median calibration time on the reference machine (see README)
CALIBRATION_REF_S = 0.09


@dataclass(frozen=True)
class Workload:
    """Fixed program inputs: one `maeda verify` process per weight window."""

    mode: str
    search_seed: int
    windows: tuple[tuple[int, int], ...]

    def weights(self) -> list[int]:
        return [k for lo, hi in self.windows for k in range(lo, hi + 1, 2)]


# The search seed is fixed per workload: trial counts are geometric, and a
# sweep short enough for one run varies 28-54% in verify time from one
# search seed to the next (README), which would drown any change in speed.
WORKLOADS = {
    "sweep-random": Workload(
        "random", 1, ((12, 60), (200, 210), (400, 404), (600, 600))),
    "sweep-consecutive": Workload(
        "consecutive", 1, ((200, 204), (300, 302), (400, 400), (596, 596))),
    "large": Workload("random", 1, ((1200, 1200),)),
}


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    a = np.arange(64, dtype=np.int64)
    for i in range(5000):
        a = (np.convolve(a, a)[:64] + i) % 1_000_003
    return time.perf_counter() - start


def scaled(wall_s: float, around: list[float]) -> float:
    """Wall time at the reference speed, from the calibrations bracketing it."""
    return wall_s * CALIBRATION_REF_S * len(around) / sum(around)


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    rss_mb: float
    exit_code: int
    output: str


class Spawner:
    """Runs commands from the checkout root through spawn.py (see there for why)."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], log: Path) -> Child:
        """Wall time, peak RSS, exit code and output of one command."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall_s"], reply["rss_kb"] / 1024, reply["exit"],
                     log.read_text(encoding="utf-8"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    verify_raw_s: float = 0.0
    check_raw_s: float = 0.0
    verify_s: float = 0.0
    check_s: float = 0.0
    window_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    weights: int = 0
    certified: int = 0
    exhausted: int = 0
    checked: int = 0
    check_failed: int = 0
    certs: dict[str, str] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _maeda(args: list[str], traced: bool, spans_path: Path) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "trace_child.py"), str(spans_path),
                repr(time.time()), *args]
    return [sys.executable, "-m", "maeda.cli", *args]


def run_round(wl: Workload, out: Path, spawner: Spawner, traced: bool) -> Round:
    """Verify every window into a fresh directory, then check it."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = out.parent / f"{out.name}-logs"
    logs.mkdir(exist_ok=True)
    rnd = Round()
    calibrations = [calibrate()]
    for i, (lo, hi) in enumerate(wl.windows):
        spans = logs / f"verify{i}.json"
        args = ["verify", "--from", str(lo), "--to", str(hi), "--mode", wl.mode,
                "--seed", str(wl.search_seed), "--jobs", "1", "--out", str(out)]
        child = spawner.run(_maeda(args, traced, spans), logs / f"verify{i}.log")
        calibrations.append(calibrate())
        rnd.verify_raw_s += child.wall_s
        rnd.window_s.append(scaled(child.wall_s, calibrations[-2:]))
        rnd.verify_s += rnd.window_s[-1]
        rnd.rss_mb = max(rnd.rss_mb, child.rss_mb)
        summary = _last_line(child.output).split()
        # "<n> weight(s) certified, <v> with empty cusp space, <f> failed"
        if len(summary) != 10 or summary[-1] != "failed" or child.exit_code != (summary[8] != "0"):
            rnd.problems.append(f"verify {lo}..{hi} exited {child.exit_code}: {_last_line(child.output)}")
            continue
        rnd.certified += int(summary[0])
        rnd.exhausted += int(summary[8])
        rnd.weights += int(summary[0]) + int(summary[8])
        if traced:
            rnd.spans.append(json.loads(spans.read_text(encoding="utf-8"))["spans"])
    spans = logs / "check.json"
    child = spawner.run(_maeda(["check", str(out)], traced, spans), logs / "check.log")
    calibrations.append(calibrate())
    rnd.check_raw_s = child.wall_s
    rnd.check_s = scaled(child.wall_s, calibrations[-2:])
    rnd.rss_mb = max(rnd.rss_mb, child.rss_mb)
    summary = _last_line(child.output).split()
    # "<passed>/<total> certificates pass"
    if (len(summary) != 3 or summary[1:] != ["certificates", "pass"]
            or child.exit_code != (summary[0].split("/")[0] != summary[0].split("/")[-1])):
        rnd.problems.append(f"check exited {child.exit_code}: {_last_line(child.output)}")
    else:
        passed, total = map(int, summary[0].split("/"))
        rnd.checked, rnd.check_failed = total, total - passed
        if traced:
            rnd.spans.append(json.loads(spans.read_text(encoding="utf-8"))["spans"])
    rnd.certs = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("cert_*.json"))}
    shutil.rmtree(logs)
    return rnd


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "sympy": sympy.__version__, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def expected_certs(wl: Workload) -> set[str]:
    return {f"cert_{k}.json" for k in wl.weights() if oracle.dimension(k) > 0}


def independent_check(wl: Workload, first: Round) -> dict[str, list[str]]:
    """Problems per certificate file found by the independent checker."""
    expected = expected_certs(wl)
    problems = {}
    for name in sorted(first.certs):
        seed = wl.search_seed if wl.mode == "random" else None
        found = oracle.check_certificate(first.certs[name], wl.mode, seed)
        if name not in expected:
            found.append("unexpected certificate")
        if found:
            problems[name] = found
    return problems


def differing(first: Round, other: Round) -> list[str]:
    """Certificates of ``other`` that differ from ``first`` apart from duration_ms."""
    names = first.certs.keys() | other.certs.keys()
    return sorted(
        n for n in names
        if n not in first.certs or n not in other.certs
        or oracle.strip_duration(first.certs[n]) != oracle.strip_duration(other.certs[n])
    )


def q123(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(spans_by_process: list[list[list]], certs: dict[str, str]) -> dict[str, float]:
    """Per-layer self times and counts of one traced round."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    trials = skips = 0
    for spans in spans_by_process:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, value in spans:
            if parent >= 0:
                child_s[parent] += end - start
                parent_name = spans[parent][0]
                if parent_name == "certify.search":
                    trials += name == "ffpoly.charpoly"
                    skips += name == "ffpoly.squarefree" and value is False
        for (name, start, end, _, _), inner in zip(spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            total_s[name] = total_s.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
    witness_trials = sum(
        len({w["trial"] for w in json.loads(text)["witnesses"].values()})
        for text in certs.values()
    )
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    return {
        "proc.start_s": s("proc.start"),
        "qseries.spanning_set_s": s("qseries.spanning_set"),
        "qseries.miller_basis_s": s("qseries.miller_basis"),
        "hecke.matrix_s": s("hecke.matrix"),
        "hecke.matrix_builds": n("hecke.matrix"),
        "ffpoly.reduce_s": s("ffpoly.reduce"),
        "ffpoly.reduce_calls": n("ffpoly.reduce"),
        "ffpoly.charpoly_s": s("ffpoly.charpoly"),
        "ffpoly.charpoly_calls": n("ffpoly.charpoly"),
        "ffpoly.squarefree_s": s("ffpoly.squarefree"),
        "ffpoly.squarefree_calls": n("ffpoly.squarefree"),
        "ffpoly.pattern_s": s("ffpoly.pattern"),
        "ffpoly.pattern_calls": n("ffpoly.pattern"),
        "ffpoly.pattern_ms_mean": 1000 * total_s.get("ffpoly.pattern", 0.0) / max(n("ffpoly.pattern"), 1),
        "primes.sieve_s": s("primes.sieve"),
        "certify.trials": trials,
        "certify.nonsquarefree_skips": skips,
        "certify.witness_trials": witness_trials,
        "certify.useful_trial_ratio": witness_trials / max(trials, 1),
        "certify.search_self_s": s("certify.search"),
        "certify.classify_s": s("certify.classify"),
        "certify.recheck_self_s": s("certify.recheck"),
        "cli.cert_write_s": s("cli.cert_write"),
        "cli.cert_read_s": s("cli.cert_read"),
        "cli.cert_bytes": sum(len(t.encode()) for t in certs.values()),
        "cli.self_s": s("cli.main") + s("cli.verify") + s("cli.check"),
        "trace.in_spans_s": sum(self_s.values()),
    }


COUNT_METRICS = ("hecke.matrix_builds", "ffpoly.reduce_calls", "ffpoly.charpoly_calls",
                 "ffpoly.squarefree_calls", "ffpoly.pattern_calls", "certify.trials",
                 "certify.nonsquarefree_skips", "certify.witness_trials")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maeda" / "cli.py").is_file():
        print(f"error: no maeda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spawner = Spawner(env)
    try:
        return bench(args, wl, spawner, work)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)


def bench(args, wl: Workload, spawner: Spawner, work: Path) -> int:
    problems: list[str] = []

    # set-up: a fresh single-weight verify, seeded by the benchmark seed (at
    # d = 1 every prime is a witness, so any seed costs one trial); the first
    # run also compiles the sources and is not timed
    setup, setup_raw = [], []
    calibration = calibrate()
    for i in range(1 if args.trace else SETUP_RUNS + 1):
        out = work / f"setup{i}"
        out.mkdir(parents=True)
        child = spawner.run([sys.executable, "-m", "maeda.cli", "verify", "--from", "12",
                             "--to", "12", "--seed", str(args.seed), "--jobs", "1",
                             "--out", str(out)], work / f"setup{i}.log")
        before, calibration = calibration, calibrate()
        if child.exit_code != 0 or not (out / "cert_12.json").is_file():
            problems.append(f"set-up run exited {child.exit_code}: {_last_line(child.output)}")
        elif i:
            setup_raw.append(child.wall_s)
            setup.append(scaled(child.wall_s, [before, calibration]))

    rounds: list[Round] = []
    traced: list[Round] = []
    started = time.perf_counter()
    while len(rounds) < (1 if args.trace else MIN_ROUNDS) or time.perf_counter() - started < args.seconds:
        rounds.append(run_round(wl, work / f"round{len(rounds)}", spawner, traced=False))
        if args.trace:
            traced.append(run_round(wl, work / f"traced{len(traced)}", spawner, traced=True))

    # per round: each weight verified, each certificate checked by maeda,
    # and each expected certificate checked independently (a weight whose
    # search is exhausted fails twice: no certificate to check)
    first = rounds[0]
    indep = independent_check(wl, first)
    expected = expected_certs(wl)
    attempted = failed = 0
    for rnd in rounds + traced:
        diff = differing(first, rnd)
        missing = expected - rnd.certs.keys()
        problems += rnd.problems + [f"{n}: differs from the first round" for n in diff]
        if len(missing) != rnd.exhausted:
            problems.append(f"{len(missing)} certificates missing, {rnd.exhausted} searches exhausted")
        attempted += rnd.weights + rnd.checked + len(expected)
        failed += rnd.exhausted + rnd.check_failed + len(set(diff) | indep.keys() | missing)
    problems += [f"{n}: {'; '.join(p)}" for n, p in indep.items()]

    # verify_s sums, window by window, the median over rounds: one slow
    # process then moves only its own window's figure
    windows = [q123([r.window_s[i] for r in rounds]) for i in range(len(wl.windows))]
    end_to_end = {
        "setup_s": q123(setup or [0.0]),
        "verify_s": {key: sum(w[key] for w in windows) for key in ("median", "q1", "q3")},
        "check_s": q123([r.check_s for r in rounds]),
        "peak_rss_mb": q123([r.rss_mb for r in rounds]),
    }
    raw = {
        "setup_s": q123(setup_raw or [0.0]),
        "verify_s": q123([r.verify_raw_s for r in rounds]),
        "check_s": q123([r.check_raw_s for r in rounds]),
    }
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {d["name"]: {"value": end_to_end[d["name"]]["median"], "unit": d["unit"]}
               for d in spec["end_to_end"]}

    layers = {}
    if args.trace:
        per_round = []
        for plain, rnd in zip(rounds, traced):
            m = layer_metrics(rnd.spans, rnd.certs)
            m["trace.wall_s"] = rnd.verify_raw_s + rnd.check_raw_s
            m["trace.overhead_s"] = m["trace.wall_s"] - plain.verify_raw_s - plain.check_raw_s
            # wall time after the last span: interpreter shutdown, writing the spans
            m["proc.exit_s"] = m["trace.wall_s"] - m.pop("trace.in_spans_s")
            # time in no named layer: the catch-all self times of cli and of
            # the search and recheck loops, where unwrapped work would land
            m["trace.unexplained_s"] = (m["cli.self_s"] + m["certify.search_self_s"]
                                        + m["certify.recheck_self_s"])
            if m["trace.unexplained_s"] > UNEXPLAINED_TOLERANCE * m["trace.wall_s"]:
                problems.append(f"{m['trace.unexplained_s']:.3f} s of {m['trace.wall_s']:.3f} s "
                                f"traced wall time is in no named layer")
            searched = sum(max(json.loads(t)["trials_total"].values()) for t in rnd.certs.values())
            if m["certify.trials"] != searched:
                problems.append(f"{m['certify.trials']} traced trials, certificates record {searched}")
            per_round.append(m)
        for name in COUNT_METRICS:
            if len({m[name] for m in per_round}) != 1:
                problems.append(f"count {name} differs between traced rounds")
        layers = {name: per_round[0][name] if name in COUNT_METRICS
                  else statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics = {d["name"]: {"value": layers[d["name"]], "unit": d["unit"]} for d in spec["per_layer"]}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "mode": wl.mode, "search_seed": wl.search_seed,
        "windows": [list(w) for w in wl.windows], "weights": wl.weights(),
        "machine": machine(), "rounds": len(rounds), "traced_rounds": len(traced),
        "per_round": [{"verify_s": r.verify_s, "check_s": r.check_s, "verify_raw_s": r.verify_raw_s,
                       "check_raw_s": r.check_raw_s, "peak_rss_mb": r.rss_mb} for r in rounds],
        "end_to_end": end_to_end, "raw_wall": raw, "calibration_ref_s": CALIBRATION_REF_S,
        "counts": {
            "weights_attempted": sum(r.weights for r in rounds + traced),
            "weights_certified": sum(r.certified for r in rounds + traced),
            "weights_exhausted": sum(r.exhausted for r in rounds + traced),
            "certificates_checked": sum(r.checked for r in rounds + traced),
            "certificates_failed": sum(r.check_failed for r in rounds + traced),
            "independent_checked": len(first.certs),
            "independent_mismatches": len(indep),
        },
        "per_layer": layers,
        "problems": problems,
    }
    print("report: " + json.dumps(report))
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
