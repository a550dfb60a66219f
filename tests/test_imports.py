"""What the product imports, and what the traced benchmark looks up in it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verify_and_check_never_import_the_oracles(tmp_path):
    # nor do stats and density, which run last in the same process
    script = (
        "import json, sys\n"
        "from maeda.cli import main\n"
        f"codes = [main(['verify', '--from', '48', '--to', '48', '--seed', '1', "
        f"'--out', {str(tmp_path)!r}]), main(['check', {str(tmp_path)!r}]), "
        f"main(['stats', {str(tmp_path)!r}]), main(['density', '--from', '1', '--to', '12'])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    codes, modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert "maeda.cli" in modules and "maeda.oracles" not in modules
    # only verify --jobs > 1 needs a process pool
    assert "concurrent.futures.process" not in modules


def test_verify_and_check_load_neither_density_nor_statistics(tmp_path):
    # every verify and check process would compile them (no bytecode is
    # written where PYTHONDONTWRITEBYTECODE is set); only stats and density
    # read them
    script = (
        "import json, sys\n"
        "from maeda.cli import main\n"
        f"codes = [main(['verify', '--from', '48', '--to', '60', '--seed', '1', "
        f"'--out', {str(tmp_path)!r}]), main(['check', {str(tmp_path)!r}])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    codes, modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert "maeda.certify" in modules
    assert not {"maeda.report", "maeda.density", "statistics", "fractions"} & set(modules)


def test_check_loads_no_hashlib(tmp_path):
    # verify derives per-weight seeds with the interpreter's own _blake2, so
    # no verify process, in either mode, and no check process loads hashlib
    # or OpenSSL's _hashlib
    commands = [
        ["verify", "--from", "12", "--to", "60", "--seed", "1", "--jobs", "1",
         "--out", str(tmp_path / "random")],
        ["verify", "--from", "48", "--to", "50", "--mode", "consecutive", "--jobs", "1",
         "--out", str(tmp_path / "consecutive")],
        ["check", str(tmp_path / "random")],
        ["check", str(tmp_path / "consecutive")],
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for argv in commands:
        script = (
            "import json, sys\n"
            "from maeda.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        code, modules = json.loads(run.stdout.splitlines()[-1])
        assert code == 0 and "maeda.certify" in modules, argv
        assert not {"hashlib", "_hashlib"} & set(modules), argv


def _traced_names() -> list[tuple[str, str]]:
    # the (module, attribute) pairs that perfbench/trace_child.py wraps
    spec = importlib.util.spec_from_file_location(
        "trace_child", ROOT / "perfbench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.WRAPPED
    return [(module_name, attr) for module_name, attr, _ in trace_child.WRAPPED]


def test_every_traced_name_resolves():
    # perfbench/trace_child.py wraps these by name; each must stay callable
    for module_name, attr in _traced_names():
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_verify_and_check_reach_every_traced_name(tmp_path, monkeypatch, capsys):
    # each traced function must be called through the attribute that
    # trace_child.py wraps, or its time would land in no traced span.
    # certify.reduce_matrix and ffpoly.is_squarefree are wrapped there but
    # unused by design: every squarefree test is certify's own
    from maeda.cli import main

    reached: set[tuple[str, str]] = set()

    def noting(name, fn):
        return lambda *args, **kwargs: reached.add(name) or fn(*args, **kwargs)

    for name in _traced_names():
        module = importlib.import_module(name[0])
        monkeypatch.setattr(module, name[1], noting(name, getattr(module, name[1])))
    out = str(tmp_path)
    assert main(["verify", "--from", "48", "--to", "50", "--mode", "consecutive",
                 "--jobs", "1", "--out", out]) == 0
    assert main(["check", out]) == 0
    capsys.readouterr()
    assert set(_traced_names()) - reached == {("maeda.certify", "reduce_matrix"),
                                              ("maeda.ffpoly", "is_squarefree")}


def test_every_catalogued_mutant_applies_to_the_source():
    # tools/mutants.py refuses a mutant whose text is not found exactly
    # once; this catches a stale catalogue in seconds, not in a CI step
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) == 11
    for name, path, text, replacement in mutants.MUTANTS:
        source = (ROOT / "src" / "maeda" / path).read_text()
        assert source.count(text) == 1 and text != replacement, name
