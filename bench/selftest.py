"""Tests of the benchmark itself (not collected by the tier-1 run).

    python3 -m pytest -q bench/selftest.py

The traced-run tests start ``run.py --trace 1`` for each workload and take
about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles as O  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

A_SCALAR, C_SCALAR = 0.7 + 0.2j, 0.5 - 0.3j


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 2.5])
def test_gramian_oracle_scalar_closed_form(alpha):
    # lyapunov (alpha 1), Kronecker (2, 3) and brute force (2.5)
    G = O.gramians([[A_SCALAR]], [[C_SCALAR]], alpha, [0])[0][0, 0]
    ref = abs(C_SCALAR) ** 2 * (1 - abs(A_SCALAR) ** 2) ** -alpha
    assert abs(G - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 2.5])
def test_gamma_oracle_scalar_closed_form(alpha):
    x = 1.7
    got = O.gamma_map([[A_SCALAR]], [[x]], alpha)[0, 0]
    assert abs(got - x * (1 - abs(A_SCALAR) ** 2) ** alpha) <= 1e-13


@pytest.mark.parametrize("alpha,k", [(1, 0), (2, 0), (2, 3), (3, 2)])
def test_resolvent_oracle_scalar_series(alpha, k):
    z = 0.4 - 0.3j
    j = np.arange(400)
    series = np.sum(O.inv_betas(alpha, j + k) * (z * A_SCALAR) ** j)
    assert abs(O.resolvents([[A_SCALAR]], [z], alpha, k)[0, 0, 0] - series) <= 1e-12
    assert abs(O.resolvent_scalar(z * A_SCALAR, alpha, k) - series) <= 1e-12


def test_tracer_restores_the_originals():
    import hardybeta as hb
    import hardybeta.acceptance  # noqa: F401
    originals = (hb.resolvent_apply, hb.kernels.resolvent_apply,
                 hb.acceptance.CRITERIA[0])
    tracer = Tracer()
    with tracer.install():
        assert hb.kernels.resolvent_apply is not originals[1]
        assert hb.colligation.resolvent_apply is hb.kernels.resolvent_apply
        hb.resolvent_apply(hb.make_weight_hardy(256), 0, [[0.5]], 0.5)
    assert (hb.resolvent_apply, hb.kernels.resolvent_apply,
            hb.acceptance.CRITERIA[0]) == originals
    assert tracer.stats["hereditary.resolvent_apply"].calls == 1
    assert tracer.stats["hereditary.spectral_radius"].calls == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced(workload):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                          workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1"], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    line = next(ln for ln in lines if ln.startswith("# traced outputs"))
    assert "identical to untraced: True" in line
    assert line.endswith(": True")  # self times within traced wall
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "series-stream", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
