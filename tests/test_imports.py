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
    assert not {"maeda.density", "statistics", "fractions"} & set(modules)


def test_every_traced_name_resolves():
    # perfbench/trace_child.py wraps these by name; each must stay callable
    spec = importlib.util.spec_from_file_location(
        "trace_child", ROOT / "perfbench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.WRAPPED
    for module_name, attr, _ in trace_child.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
