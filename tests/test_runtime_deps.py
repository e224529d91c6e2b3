"""The package runs without scipy: scipy is a test-only oracle."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import importlib.abc
    import sys


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is refused here: {name}")
            return None


    sys.meta_path.insert(0, RefuseScipy())

    from vircut import (acceptance, bounds, cli, fields, rational, smear,
                        store, verma)

    for name in ("heat-sup-closed-form", "piecewise-field"):
        result = acceptance.run_criterion(name)
        assert result.passed, result
    assert cli.main(["field", "piecewise-mobius", "--out", sys.argv[1]]) == 0
    assert "scipy" not in sys.modules
    print("no scipy")
""")


def test_the_package_imports_and_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "field")],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "no scipy"
    assert (tmp_path / "field" / "field_report.json").is_file()
