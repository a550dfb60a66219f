"""Certificate files, the batch driver, rechecking, stats, and densities."""

import contextlib
import csv
import gc
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maeda import certify, cli
from maeda.certify import MAX_WEIGHT, CheckResult, check_certificate, verify_weight
from maeda.density import BoundViolation, check_density_bounds
from maeda.hecke import dim_cusp_forms
from maeda.cli import (
    RunConfig,
    certificate_from_json,
    certificate_path,
    certificate_to_json,
    cmd_check,
    cmd_verify,
    main,
    read_certificate,
    write_certificate,
)
from maeda.patterns import Pattern, PrimeType
from maeda.report import cmd_density, cmd_stats, ratio_rows, ratio_summary

from test_certify import find_non_witness_prime

T = PrimeType


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run12_60")
    code = cmd_verify(RunConfig(k_min=12, k_max=60, out_dir=out, seed=1))
    assert code == 0
    return out


def test_round_trip_serialization():
    for cert in (verify_weight(12, seed=4), verify_weight(48, seed=4),
                 verify_weight(36, mode="consecutive")):
        assert certificate_from_json(certificate_to_json(cert)) == cert


def test_json_layout_matches_schema():
    cert = verify_weight(24, seed=4)
    payload = json.loads(certificate_to_json(cert))
    assert list(payload) == [
        "weight", "dimension", "mode", "seed", "prime_bound", "vacuous",
        "witnesses", "trials_total", "duration_ms", "schema_version",
    ]
    assert payload["schema_version"] == 1
    assert set(payload["trials_total"]) == {"I", "II", "III"}
    for blob in payload["witnesses"].values():
        assert list(blob) == ["prime", "pattern", "trial"]
        degrees = [d for d, _ in blob["pattern"]]
        assert degrees == sorted(degrees)


def test_malformed_json_rejected():
    cert = verify_weight(24, seed=4)
    good = json.loads(certificate_to_json(cert))
    for breakage in (
        lambda d: d.pop("weight"),
        lambda d: d.update(schema_version=99),
        lambda d: d["witnesses"].update(V={"prime": 5, "pattern": [[1, 1]], "trial": 1}),
        lambda d: d["witnesses"]["I"].update(pattern="xyz"),
    ):
        broken = json.loads(json.dumps(good))
        breakage(broken)
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(broken))
    with pytest.raises(ValueError):
        certificate_from_json("{not json")


@pytest.mark.parametrize(
    "old, new",
    [
        ('"witnesses": {', '"witnesses": [], "was": {'),
        ('"trials_total": {', '"trials_total": [], "was": {'),
        ('"weight": 24,', '"weight": 1e400,'),
        ('"weight": 24,', '"weight": ' + "[" * 10**5 + "]" * 10**5 + ","),
        ('"weight": 24,', '"weight": ' + "9" * 5000 + ","),
    ],
    ids=["witnesses-list", "trials_total-list", "weight-overflow", "deep-nesting",
         "int-too-long"],
)
def test_malformed_field_types_fail_without_traceback(tmp_path, capsys, old, new):
    text = certificate_to_json(verify_weight(24, seed=4))
    assert old in text
    broken = text.replace(old, new)
    with pytest.raises(ValueError):
        certificate_from_json(broken)
    (tmp_path / "cert_24.json").write_text(broken)
    assert cmd_check(tmp_path) == 1
    assert "cert_24.json: FAIL (" in capsys.readouterr().out


@pytest.mark.parametrize(
    "weight, mode, edit, reason",
    [
        (48, "random",
         lambda b: [w.update(trial=-7) for w in b["witnesses"].values()],
         "trial -7 below 1"),
        (48, "random",
         lambda b: b.update(trials_total={"I": 99, "II": -3, "III": 0}),
         "trials_total does not match the witness trials"),
        (48, "random", lambda b: b["trials_total"].update(IV=1),
         "trials_total does not match the witness trials"),
        (12, "random", lambda b: b["trials_total"].update(II=1),
         "trials_total does not match the witness trials"),
        (48, "random", lambda b: b.update(mode="bogus"), "unknown mode 'bogus'"),
        (48, "random", lambda b: b.update(seed=None),
         "seed None does not fit mode 'random'"),
        (36, "consecutive", lambda b: b.update(seed=3),
         "seed 3 does not fit mode 'consecutive'"),
    ],
    ids=["trial-negative", "trials_total-off", "trials_total-extra-kind",
         "vacuous-trials_total", "mode-bogus", "random-without-seed",
         "consecutive-with-seed"],
)
def test_cmd_check_validates_trials_mode_and_seed(tmp_path, capsys, weight, mode,
                                                  edit, reason):
    cert = verify_weight(weight, mode=mode, seed=1)
    assert check_certificate(cert)  # as verify wrote it
    blob = json.loads(certificate_to_json(cert))
    edit(blob)
    (tmp_path / f"cert_{weight}.json").write_text(json.dumps(blob))
    assert cmd_check(tmp_path) == 1
    out = capsys.readouterr().out
    assert f"cert_{weight}.json: FAIL (" in out and reason in out


def test_cmd_verify_small_range(small_run):
    # even weights 12..60: 25 of them; k = 14 alone has an empty cusp space
    files = sorted(small_run.glob("cert_*.json"))
    assert len(files) == 24
    assert not certificate_path(small_run, 14).exists()
    with open(small_run / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    by_weight = {int(r["weight"]): r for r in rows}
    assert by_weight[14]["status"] == "vacuous"
    assert sum(r["status"] == "certified" for r in rows) == 24
    assert by_weight[12]["dimension"] == "1"
    cert12 = read_certificate(certificate_path(small_run, 12))
    assert cert12.vacuous
    assert by_weight[60]["witness_I"] and by_weight[60]["trials_I"]


def test_cmd_verify_resume_is_idempotent(small_run, tmp_path):
    before = {
        p.name: p.read_bytes() for p in small_run.glob("cert_*.json")
    }
    summary_before = (small_run / "summary.csv").read_bytes()
    code = cmd_verify(RunConfig(k_min=12, k_max=60, out_dir=small_run, seed=1,
                                resume=True))
    assert code == 0
    after = {p.name: p.read_bytes() for p in small_run.glob("cert_*.json")}
    assert before == after  # zero recomputation: bytes untouched
    assert (small_run / "summary.csv").read_bytes() == summary_before


def test_cmd_verify_deterministic_up_to_duration(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cmd_verify(RunConfig(k_min=24, k_max=48, out_dir=out, seed=7)) == 0
    for path_a in sorted(out_a.glob("cert_*.json")):
        a = json.loads(path_a.read_text())
        b = json.loads((out_b / path_a.name).read_text())
        a.pop("duration_ms")
        b.pop("duration_ms")
        assert a == b, path_a.name


def test_cmd_verify_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cmd_verify(RunConfig(k_min=24, k_max=60, out_dir=serial, seed=5)) == 0
    assert cmd_verify(RunConfig(k_min=24, k_max=60, out_dir=parallel, seed=5,
                                jobs=2)) == 0
    for path in sorted(serial.glob("cert_*.json")):
        a = json.loads(path.read_text())
        b = json.loads((parallel / path.name).read_text())
        a.pop("duration_ms")
        b.pop("duration_ms")
        assert a == b


def test_records_are_frozen_and_survive_the_pool_only_if_valid(small_run):
    # the --jobs pool pickles WeightResult -> Certificate -> Witness -> Pattern
    cert = read_certificate(certificate_path(small_run, 48))
    result = cli.WeightResult(48, cert.dimension, cert)
    assert pickle.loads(pickle.dumps(result)) == result
    witness = cert.witnesses[T.I]
    unordered = tuple.__new__(Pattern, (((2, 1), (1, 1)),))
    tampered = result._replace(
        cert=cert._replace(witnesses={T.I: witness._replace(pattern=unordered)}))
    with pytest.raises(ValueError, match="increasing"):
        pickle.loads(pickle.dumps(tampered))
    records = [witness.pattern, witness, cert, check_certificate(cert),
               RunConfig(12, 60, small_run), result, check_density_bounds(20),
               BoundViolation(3, T.II, 0.1, 0.2)]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_check_result_is_falsy_exactly_when_not_ok():
    assert bool(CheckResult(True)) and bool(CheckResult(True, ("note",)))
    assert not CheckResult(False) and not CheckResult(False, ("pattern mismatch",))


def test_cmd_verify_starts_no_more_workers_than_weights(tmp_path, monkeypatch):
    # under fork a pool starts all its workers at the first submit; this
    # stand-in starts none and only records how many were asked for
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert cmd_verify(RunConfig(k_min=24, k_max=26, out_dir=tmp_path, seed=1,
                                jobs=1000)) == 0
    assert asked == [2]
    assert cmd_verify(RunConfig(k_min=24, k_max=24, out_dir=tmp_path, seed=1,
                                jobs=1000)) == 0
    assert asked == [2]  # one weight: no pool at all


def test_write_certificate_is_atomic(tmp_path, monkeypatch):
    cert = verify_weight(48, seed=1)
    path = certificate_path(tmp_path, 48)
    write_certificate(path, cert)
    assert path.read_bytes() == certificate_to_json(cert).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["cert_48.json"]

    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    rewritten = cert._replace(duration_ms=cert.duration_ms + 1)
    with pytest.raises(OSError):
        write_certificate(path, rewritten)  # the old file stays whole
    with pytest.raises(OSError):
        write_certificate(certificate_path(tmp_path, 60), verify_weight(60, seed=1))
    assert [p.name for p in tmp_path.iterdir()] == ["cert_48.json"]
    assert read_certificate(path) == cert


def test_cmd_verify_removes_temp_files_of_dead_writers_only(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: no live process has its pid
    dead = tmp_path / f".cert_48.json.{child.pid}.tmp"
    live = tmp_path / f".cert_50.json.{os.getpid()}.tmp"
    other = [tmp_path / ".cert_52.json.x.tmp", tmp_path / f"cert_54.json.{child.pid}.tmp",
             tmp_path / f".cert_56.json.{child.pid}.tmp.bak"]
    for path in (dead, live, *other):
        path.write_text("partial")
    assert cmd_verify(RunConfig(k_min=12, k_max=12, out_dir=tmp_path, seed=1)) == 0
    assert not dead.exists()
    assert live.exists() and all(path.exists() for path in other)


def test_cmd_verify_prints_each_row_as_its_weight_finishes(tmp_path, capsys,
                                                           monkeypatch):
    calls = []

    def spy(k, **kwargs):
        calls.append((k, capsys.readouterr().out))
        return verify_weight(k, **kwargs)

    monkeypatch.setattr(cli, "verify_weight", spy)
    assert cmd_verify(RunConfig(k_min=24, k_max=28, out_dir=tmp_path, seed=1)) == 0
    assert [k for k, _ in calls] == [24, 26, 28]
    assert calls[0][1] == ""
    assert calls[1][1].startswith("k=   24  d=2   certified ")
    assert calls[2][1].startswith("k=   26  d=1   certified ")


def test_cmd_verify_rejects_bad_config(tmp_path, capsys):
    assert cmd_verify(RunConfig(k_min=60, k_max=12, out_dir=tmp_path)) == 2
    assert cmd_verify(RunConfig(k_min=12, k_max=24, out_dir=tmp_path, jobs=0)) == 2
    assert cmd_verify(RunConfig(k_min=12, k_max=24, out_dir=tmp_path,
                                bound=2**21)) == 2
    assert cmd_verify(RunConfig(k_min=12, k_max=MAX_WEIGHT + 2, out_dir=tmp_path)) == 2
    RunConfig(k_min=MAX_WEIGHT, k_max=MAX_WEIGHT, out_dir=tmp_path).validate()
    capsys.readouterr()


def test_verify_refuses_a_negative_first_weight(tmp_path, capsys):
    capsys.readouterr()
    assert main(["verify", "--from", "-6", "--to", "12", "--out", str(tmp_path)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == "error: weights start at 0, got -6\n"
    assert not any(tmp_path.iterdir())
    RunConfig(k_min=0, k_max=12, out_dir=tmp_path).validate()


@pytest.mark.parametrize(
    "make_unreadable",
    [Path.mkdir, lambda path: path.symlink_to(path.with_name("absent.json"))],
    ids=["directory", "dangling-symlink"],
)
def test_check_and_stats_report_an_unreadable_certificate(small_run, tmp_path, capsys,
                                                          make_unreadable):
    run = tmp_path / "run"
    run.mkdir()
    (run / "cert_48.json").write_bytes(certificate_path(small_run, 48).read_bytes())
    make_unreadable(run / "cert_24.json")
    capsys.readouterr()
    assert main(["check", str(run)]) == 1
    out = capsys.readouterr().out
    assert "cert_24.json: FAIL (cannot read: " in out and "cert_48.json: ok" in out
    assert "1/2 certificates pass" in out
    assert main(["stats", str(run), "--out", str(tmp_path / "stats")]) == 0
    printed = capsys.readouterr()
    assert "warning: skipping cert_24.json (cannot read: " in printed.err
    assert "ratio rows from 1 certificate(s)" in printed.out


@pytest.mark.parametrize(
    "edit, reason",
    [({"dimension": 3000}, "wrong dimension"),
     ({"weight": 20000, "dimension": dim_cusp_forms(20000)},
      f"weight 20000 above {MAX_WEIGHT}")],
    ids=["dimension", "weight-above-max"],
)
def test_stats_skips_a_certificate_check_refuses_at_its_header(small_run, tmp_path, capsys,
                                                              edit, reason):
    run = tmp_path / "run"
    run.mkdir()
    (run / "cert_24.json").write_bytes(certificate_path(small_run, 24).read_bytes())
    blob = json.loads(certificate_path(small_run, 48).read_text())
    blob.update(edit)
    (run / "cert_48.json").write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["stats", str(run), "--out", str(tmp_path / "stats")]) == 0
    printed = capsys.readouterr()
    assert printed.err == f"warning: skipping cert_48.json ({reason})\n"
    assert "ratio rows from 1 certificate(s)" in printed.out
    with open(tmp_path / "stats" / "stats.csv", newline="") as fh:
        assert {r["weight"] for r in csv.DictReader(fh)} == {"24"}
    assert main(["check", str(run)]) == 1
    assert f"cert_48.json: FAIL ({reason})" in capsys.readouterr().out


def test_cmd_check_passes_on_fresh_run(small_run, capsys):
    assert cmd_check(small_run) == 0
    out = capsys.readouterr().out
    assert "24/24 certificates pass" in out


def test_cmd_check_empty_directory(tmp_path, capsys):
    assert cmd_check(tmp_path) == 0
    assert "0 certificates" in capsys.readouterr().out
    assert cmd_check(tmp_path / "absent") == 2


def test_cmd_check_flags_tampered_certificate(small_run, tmp_path, capsys):
    victim = tmp_path / "tampered"
    victim.mkdir()
    for p in small_run.glob("cert_*.json"):
        (victim / p.name).write_bytes(p.read_bytes())
    cert = read_certificate(victim / "cert_48.json")
    substitute = find_non_witness_prime(48, T.I, cert.witnesses[T.I])
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = witnesses[T.I]._replace(prime=substitute)
    write_certificate(victim / "cert_48.json",
                      cert._replace(witnesses=witnesses))
    assert cmd_check(victim) == 1
    out = capsys.readouterr().out
    assert "cert_48.json: FAIL" in out and "pattern mismatch" in out


def test_cmd_check_fails_a_certificate_filed_under_another_weight(small_run, tmp_path,
                                                                   capsys):
    # cert_32.json copied over cert_30.json passed as "ok (k=32, d=2)"
    run = tmp_path / "run"
    run.mkdir()
    for k in (24, 32):
        (run / f"cert_{k}.json").write_bytes(certificate_path(small_run, k).read_bytes())
    (run / "cert_30.json").write_bytes(certificate_path(small_run, 32).read_bytes())
    assert cmd_check(run) == 1
    out = capsys.readouterr().out
    assert "cert_30.json: FAIL (file name is not cert_32.json)\n" in out
    assert "cert_24.json: ok" in out and "cert_32.json: ok (k=32, d=2)" in out
    assert "2/3 certificates pass" in out

    # the name reason comes after the recheck's own, which keep their place
    blob = json.loads(certificate_path(small_run, 32).read_text())
    blob["mode"] = "bogus"
    (run / "cert_30.json").write_text(json.dumps(blob))
    assert cmd_check(run) == 1
    assert ("cert_30.json: FAIL (unknown mode 'bogus'; file name is not cert_32.json)\n"
            in capsys.readouterr().out)


def test_stats_skips_a_certificate_filed_under_another_weight(small_run, tmp_path, capsys):
    # cert_32.json copied over cert_30.json counted weight 32 twice: 8 ratio
    # rows from 4 certificates, and "(4 wts)"
    run = tmp_path / "run"
    run.mkdir()
    for k in (24, 28, 32):
        (run / f"cert_{k}.json").write_bytes(certificate_path(small_run, k).read_bytes())
    (run / "cert_30.json").write_bytes(certificate_path(small_run, 32).read_bytes())
    capsys.readouterr()
    assert main(["stats", str(run), "--out", str(tmp_path / "stats")]) == 0
    printed = capsys.readouterr()
    assert printed.err == "warning: skipping cert_30.json (file name is not cert_32.json)\n"
    assert "6 ratio rows from 3 certificate(s)" in printed.out
    assert "(4 wts)" not in printed.out
    with open(tmp_path / "stats" / "stats.csv", newline="") as fh:
        assert [r["weight"] for r in csv.DictReader(fh)] == ["24", "24", "28", "28", "32", "32"]


def test_cmd_check_reports_malformed_file_but_continues(small_run, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "cert_24.json").write_bytes(
        certificate_path(small_run, 24).read_bytes()
    )
    (mixed / "cert_999.json").write_text("{broken")
    assert cmd_check(mixed) == 1
    out = capsys.readouterr().out
    assert "cert_24.json: ok" in out and "cert_999.json: FAIL" in out


def test_cmd_check_turns_check_error_into_fail_line(small_run, tmp_path, capsys, monkeypatch):
    # with the weight cap lifted, weight 50331648 passes every header check,
    # but its basis would need 2^23 coefficients, far above the 6000 the
    # builder allows: it refuses with a ValueError, which must fail that
    # file alone
    monkeypatch.setattr(certify, "MAX_WEIGHT", 1 << 62)
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for k in (24, 36):
        (mixed / f"cert_{k}.json").write_bytes(certificate_path(small_run, k).read_bytes())
    blob = json.loads(certificate_path(small_run, 36).read_text())
    k = 50331648
    blob.update(weight=k, dimension=dim_cusp_forms(k))
    (mixed / "cert_30.json").write_text(json.dumps(blob))
    assert cmd_check(mixed) == 1
    out = capsys.readouterr().out
    assert "cert_24.json: ok" in out and "cert_36.json: ok" in out
    assert "cert_30.json: FAIL (precision" in out
    assert "2/3 certificates pass" in out


def test_cmd_check_reports_prime_bound_above_2_20(small_run, tmp_path, capsys):
    victim = tmp_path / "bound"
    victim.mkdir()
    blob = json.loads(certificate_path(small_run, 48).read_text())
    blob["prime_bound"] = 4194304
    blob["witnesses"]["I"]["prime"] = 1048583
    (victim / "cert_48.json").write_text(json.dumps(blob))
    assert cmd_check(victim) == 1
    out = capsys.readouterr().out
    assert "cert_48.json: FAIL (prime bound 4194304 outside [3, 2^20];" in out
    assert "kind I witness 1048583: not below 2^20" in out


def test_cmd_check_refuses_weight_above_max(small_run, tmp_path, capsys):
    victim = tmp_path / "huge"
    victim.mkdir()
    blob = json.loads(certificate_path(small_run, 48).read_text())
    blob["weight"] = 10**6
    blob["dimension"] = dim_cusp_forms(10**6)
    (victim / "cert_1000000.json").write_text(json.dumps(blob))
    assert cmd_check(victim) == 1
    out = capsys.readouterr().out
    assert f"cert_1000000.json: FAIL (weight 1000000 above {MAX_WEIGHT})" in out


def test_cmd_stats_outputs(small_run, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert cmd_stats(small_run, stats_dir) == 0
    capsys.readouterr()
    with open(stats_dir / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # vacuous (d <= 1) certificates are excluded from the statistics
    weights = {int(r["weight"]) for r in rows}
    assert weights == {k for k in range(12, 61, 2) if dim_cusp_forms(k) >= 2}
    # kind II has no defined density at d = 2, so those weights lack II rows
    for r in rows:
        if int(r["dimension"]) == 2:
            assert r["kind"] in ("I", "III")
    for r in rows:
        assert r["kind"] in ("I", "II", "III")
        assert float(r["ratio"]) == pytest.approx(
            int(r["trials"]) / float(r["expected"]), abs=1e-5
        )
    for kind in ("I", "II", "III"):
        with open(stats_dir / f"histogram_{kind}.csv", newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in hist) == sum(
            1 for r in rows if r["kind"] == kind
        )


def test_ratio_rows_and_summary_helpers():
    certs = [verify_weight(k, seed=2) for k in (24, 48, 60)]
    certs.append(verify_weight(12, seed=2))  # vacuous: dropped
    rows = ratio_rows(certs)
    assert {cert.weight for cert, _, _ in rows} == {24, 48, 60}
    summary = ratio_summary(rows)
    stats = summary[("random", T.I)]
    assert stats["count"] == 3
    assert stats["min"] <= stats["med"] <= stats["max"]


def test_cmd_stats_single_certificate(tmp_path, capsys):
    out = tmp_path / "single"
    out.mkdir()
    write_certificate(out / "cert_48.json", verify_weight(48, seed=3))
    assert cmd_stats(out) == 0
    capsys.readouterr()
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # one row per kind
    with open(out / "histogram_I.csv", newline="") as fh:
        hist = list(csv.DictReader(fh))
    assert len(hist) == 1 and hist[0]["count"] == "1"


def test_cmd_density_table(capsys):
    assert cmd_density(1, 5) == 0
    out = capsys.readouterr().out
    lines = {int(line.split()[0]): line for line in out.splitlines()[1:] if line.strip()}
    assert "1/5=0.2000" in lines[5]
    assert "8/15=0.5333" in lines[5]
    assert "1/3=0.3333" in lines[4]
    # D_II is undefined below d = 3
    assert lines[2].split()[2] == "-"
    assert cmd_density(3, 2) == 2


@pytest.mark.parametrize("d, code", [(1166, 0), (1167, 2), (14296, 2)])
def test_density_caps_d_max_at_the_dimension_at_max_weight(capsys, d, code):
    # dim S_14000 = 1166; from d = 14296 on the exact D_II has more than the
    # 4,300 digits Python converts to a string, which raised a traceback
    assert dim_cusp_forms(MAX_WEIGHT) == 1166
    assert main(["density", "--from", str(d), "--to", str(d)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == f"error: d_max {d} above 1166, the dimension at weight 14000\n"
    else:
        assert captured.out.splitlines()[1].split()[0] == "1166" and captured.err == ""


# ---------------------------------------------------------------------------
# golden outputs: density and stats print and write exactly these bytes

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
STATS_FILES = ("stats.csv", "histogram_I.csv", "histogram_II.csv", "histogram_III.csv")


@pytest.fixture(scope="module")
def mixed_run(small_run, tmp_path_factory) -> Path:
    # random-mode certificates for 12..60 (seed 1), consecutive-mode for 62..100
    out = tmp_path_factory.mktemp("mixed")
    for path in small_run.glob("cert_*.json"):
        (out / path.name).write_bytes(path.read_bytes())
    assert cmd_verify(RunConfig(k_min=62, k_max=100, out_dir=out, mode="consecutive")) == 0
    return out


def test_density_output_is_golden(capsys):
    capsys.readouterr()
    assert main(["density", "--from", "1", "--to", "120"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "density_1_120.txt").read_text()


def test_stats_outputs_are_golden(mixed_run, tmp_path, capsys):
    out = tmp_path / "stats"
    capsys.readouterr()
    assert main(["stats", str(mixed_run), "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.replace(str(out), "<out>") == (GOLDEN / "stats_stdout.txt").read_text()
    for name in STATS_FILES:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _without_last_column(text: str) -> str:
    # summary.csv's last column is duration_ms, the only one that may differ
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize(
    "runs, stdout, summary, code",
    [
        ([["--from", "10", "--to", "60", "--seed", "1"]],
         "verify_stdout.txt", "verify_summary.csv", 0),
        # a --resume rerun prints "cached" rows and writes the same summary
        ([["--from", "10", "--to", "60", "--seed", "1"]] * 2,
         "verify_resume_stdout.txt", "verify_summary.csv", 0),
        ([["--mode", "consecutive", "--bound", "30", "--from", "590", "--to", "600"]],
         "verify_exhausted_stdout.txt", "verify_exhausted_summary.csv", 1),
    ],
    ids=["first", "resume", "exhausted"],
)
def test_verify_outputs_are_golden(tmp_path, capsys, runs, stdout, summary, code):
    # the last run's stdout and exit code, and summary.csv but for duration_ms
    for i, args in enumerate(runs):
        capsys.readouterr()
        got = main(["verify", *args, "--out", str(tmp_path), *(["--resume"] if i else [])])
    printed = capsys.readouterr()
    assert got == code and printed.err == ""
    assert printed.out == (GOLDEN / stdout).read_text()
    assert _without_last_column((tmp_path / "summary.csv").read_text()) == (
        GOLDEN / summary).read_text()


def test_main_entry_points(tmp_path, capsys, monkeypatch):
    # run in-process, main leaves the collector alone: only run() freezes it
    frozen = gc.get_freeze_count()
    out = tmp_path / "cli"
    code = main(["verify", "--from", "12", "--to", "16", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert main(["check", str(out)]) == 0
    assert main(["stats", str(out)]) == 0
    assert main(["density", "--from", "2", "--to", "4"]) == 0
    capsys.readouterr()

    monkeypatch.delenv("MAEDA_OUT", raising=False)
    assert main(["verify", "--from", "12", "--to", "16"]) == 2
    capsys.readouterr()

    monkeypatch.setenv("MAEDA_OUT", str(tmp_path / "env_out"))
    assert main(["verify", "--from", "12", "--to", "12", "--seed", "1"]) == 0
    assert (tmp_path / "env_out" / "cert_12.json").exists()
    capsys.readouterr()

    with pytest.raises(SystemExit):
        main(["verify", "--from", "12"])  # argparse: missing --to
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_run_freezes_the_collector_after_main_returns(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert calls == ["main", "freeze"] and exited.value.code == 1


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"maeda": "maeda.cli:run"}


def _maeda_process(*args: str) -> subprocess.CompletedProcess:
    # a fresh `python -m maeda.cli` process, which exits through run()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("MAEDA_OUT", None)
    return subprocess.run([sys.executable, "-m", "maeda.cli", *args], capture_output=True,
                          env=env)


def test_process_output_and_exit_codes_survive_the_frozen_exit(tmp_path):
    # stdout is flushed whole before the process exits, and main's code is
    # the exit status: 0 on success, 1 for a tampered certificate, 2 for a
    # configuration error
    verify = _maeda_process("verify", "--from", "10", "--to", "60", "--seed", "1",
                            "--out", str(tmp_path))
    assert (verify.returncode, verify.stderr) == (0, b"")
    assert verify.stdout == (GOLDEN / "verify_stdout.txt").read_bytes()

    cert = read_certificate(tmp_path / "cert_48.json")
    witnesses = dict(cert.witnesses)
    witnesses[T.I] = witnesses[T.I]._replace(
        prime=find_non_witness_prime(48, T.I, cert.witnesses[T.I]))
    write_certificate(tmp_path / "cert_48.json", cert._replace(witnesses=witnesses))
    check = _maeda_process("check", str(tmp_path))
    assert check.returncode == 1 and b"cert_48.json: FAIL" in check.stdout

    unset = _maeda_process("verify", "--from", "12", "--to", "12")
    assert unset.returncode == 2 and b"--out is required" in unset.stderr


# ---------------------------------------------------------------------------
# fuzzing check with certificate JSON that is broken in one place

def _json_paths(node, path=()):
    """(path, value) of every node below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _json_paths(value, path + (key,))


FUZZ_BASE = certificate_to_json(verify_weight(48, seed=1))  # kinds I to IV
FUZZ_PATHS = list(_json_paths(json.loads(FUZZ_BASE)))
# values that check cannot verify: any change to them keeps the certificate
# valid unless it breaks the schema
UNCHECKED = {("seed",), ("duration_ms",), ("witnesses", "IV", "trial")}
OPTIONAL = {("witnesses", "IV")}

json_junk = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.text(max_size=8),
    st.floats(),
    st.booleans(),
    st.none(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)


def _breaks(path, old, new) -> bool:
    # a replacement that no valid certificate can hold at this path
    if type(new) is not type(old):
        return True
    return type(new) is int and path not in UNCHECKED


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_certificate_fails_check_and_never_raises(data):
    payload = json.loads(FUZZ_BASE)
    op = data.draw(st.sampled_from(["drop", "replace", "perturb", "truncate"]))
    if op == "truncate":
        cut = data.draw(st.integers(0, len(FUZZ_BASE.rstrip()) - 1))
        text = FUZZ_BASE[:cut]
    else:
        path, old = data.draw(st.sampled_from(FUZZ_PATHS))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            assume(path not in OPTIONAL)
            del parent[path[-1]]
        elif op == "replace":
            new = data.draw(json_junk)
            assume(_breaks(path, old, new))
            parent[path[-1]] = new
        else:
            assume(type(old) is int and path not in UNCHECKED | {("prime_bound",)})
            delta = data.draw(st.integers(-1000, 1000).filter(bool))
            if path == ("weight",) or path[-1] == "prime":
                delta = 2 * delta + 1  # odd weight: no cusp forms; even prime: composite
            parent[path[-1]] = old + delta
        text = json.dumps(payload)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cert_48.json").write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cmd_check(Path(tmp))
    assert code == 1, (op, text)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("cert_48.json: FAIL (") and lines[1] == "0/1 certificates pass"


@pytest.mark.parametrize(
    "change",
    [{"mode": "consecutive"}, {"seed": 2}, {"bound": 100003}],
)
def test_resume_redoes_a_certificate_from_a_different_run(tmp_path, capsys, change):
    # a certificate that passes check but was made with another mode, seed
    # or bound is not the run asked for: --resume must search again
    assert cmd_verify(RunConfig(48, 48, tmp_path, seed=1)) == 0
    config = RunConfig(48, 48, tmp_path, resume=True, **{"seed": 1, **change})
    capsys.readouterr()
    assert cmd_verify(config) == 0
    assert "cached" not in capsys.readouterr().out
    cert = read_certificate(certificate_path(tmp_path, 48))
    seed = config.seed if config.mode == "random" else None
    assert (cert.mode, cert.seed, cert.prime_bound) == (config.mode, seed, config.bound)
    assert cmd_verify(config) == 0
    assert "cached" in capsys.readouterr().out
