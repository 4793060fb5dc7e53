"""The runtime is numpy-only: building and checking a family loads no scipy,
importing the package loads no process pool, and importing the CLI loads
no acceptance suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import numpy as np
import hardybeta as hb
from hardybeta import colligation, kernels

w = hb.make_weight_beta_alpha(2.0, 256)
T = np.array([[0.3, 0.1], [0.0, -0.2]])
char = hb.characteristic_family(w, T, k_max=4)
rep = hb.check_inner_family(char.family, k_max=4, J=60)
res = hb.check_coincidence(char, char)
assert rep.isometry_residual < 1e-8 and res.coincide
# the benchmark's tracer patches these names
assert callable(colligation.resolvent_apply)
assert callable(kernels.resolvent_apply)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                          SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["hardybeta", "hardybeta.cli",
                                    "hardybeta.acceptance"])
def test_import_loads_no_process_pool(module):
    # run_suite imports multiprocessing only when it forks workers, so the
    # import of the package, the CLI and the suite does not pay for it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_suite():
    # only `verify` runs the acceptance suite, and cmd_verify imports it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hardybeta.cli; "
         "print('hardybeta.acceptance' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
