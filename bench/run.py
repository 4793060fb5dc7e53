"""Run one workload of the hardy-beta benchmark and print its metrics.

    python3 bench/run.py --workload series-stream --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs a fixed number of repeats, set by
``--seconds`` and the workload's nominal repeat time (so that one run
measures about ``--seconds`` on a 2-CPU host, and a seed always gives the
same ops), and prints the end-to-end metrics (the median over repeats where
a metric is per repeat).  With ``--trace 1`` it
runs a fixed number of repeats untraced, then the same repeats with every
public ``hardybeta`` function wrapped in a span recorder, checks that both
passes give identical outputs, and prints the per-layer metrics (per
repeat).  Spans are written under ``bench/out/``.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The program is built from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: one BLAS thread, set before numpy loads and inherited by the set-up
#: probes: the program's matrices are at most 8 x 8, and on a 2-CPU host a
#: second BLAS thread spinning between calls only adds noise to the timings
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters started to time set-up, half before the timed
#: repeats and half after them; setup_s is their median
SETUP_PROBES = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

_SERIES = [
    "weights.make_weight.busy_s",
    "weights.gamma_k_coeffs.calls",
    "weights.gamma_k_coeffs.busy_s",
    "weights.gamma_k_coeffs.distinct_frac",
    "hereditary.gramian_table.self_s",
    "hereditary.gramian_table.terms_mean",
    "hereditary.gramian_table.failed",
    "hereditary.classify.self_s",
    "hereditary.classify.failed",
    "hereditary.gamma_map.busy_s",
    "hereditary.gamma_map.failed",
    "hereditary.gamma_k_map.busy_s",
    "hereditary.gamma_k_map.failed",
    "hereditary.resolvent_apply.calls",
    "hereditary.resolvent_apply.busy_s",
    "hereditary.resolvent_apply.distinct_frac",
    "hereditary.spectral_radius.calls",
    "hereditary.hermitian_inverse.calls",
    "hereditary.resolvent_scalar.calls",
    "hereditary.resolvent_scalar.busy_s",
    "kernels.space_kernel.calls",
    "colligation.build_family.self_s",
    "colligation.transfer_eval.calls",
    "colligation.transfer_eval.busy_s",
    *[f"kernels.kernel_{kind}.self_s"
      for kind in ("coinvariant", "invariant", "shifted", "gap")],
    "kernels.check_inner_family.self_s",
    "kernels.check_contractive_multiplier.self_s",
    "model.check_coincidence.calls",
    "model.check_coincidence.self_s",
    "model.check_coincidence.sweeps",
    "model.model_roundtrip_residual.self_s",
    "model.characteristic_family.self_s",
    "model.functional_model_colligation.self_s",
    "syssim.simulate.busy_s",
    "syssim.check_ztransform.busy_s",
    "syssim.check_io_isometry.busy_s",
    "serialize.dumps.busy_s",
    "serialize.kernel_grid_csv.busy_s",
    "serialize.family_from_json.busy_s",
    *[f"cli.cmd_{sub}.self_s" for sub in
      ("weights", "analyze", "colligate", "charfn", "simulate", "kernels")],
    *[f"acceptance.criterion_{n}.busy_s" for n in range(1, 13)],
]
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count",
          "distinct_frac": "ratio", "terms_mean": "count", "sweeps": "count"}

PER_LAYER = {name: _UNITS[name.rsplit(".", 1)[1]] for name in _SERIES}
PER_LAYER["trace.overhead_frac"] = "ratio"
PER_LAYER["failed_frac"] = "ratio"
for _s in ("bulk", "deep", "nonnormal", "edge"):
    PER_LAYER[f"slice.{_s}.failed_frac"] = "ratio"


def setup_times(workload: str, probes: int) -> list:
    """Seconds each of ``probes`` fresh interpreters took to import
    hardybeta and build the workload's weight sequences."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def repeat_count(wl, seconds: float) -> int:
    """Repeats of an untraced run: ``--seconds`` over the workload's nominal
    repeat time.  The count depends on nothing measured, so the same seed
    attempts the same ops on every run."""
    return max(wl.min_repeats, round(seconds / wl.repeat_s))


def measure(wl, repeats, tracer=None):
    """Run ``repeats`` repeats.  Returns the repeat walls and the verified
    ops of each repeat."""
    walls, reps = [], []
    for r in range(repeats):
        specs = wl.prepare(r)
        with tracer.install() if tracer else contextlib.nullcontext():
            wall, outs = wl.run(specs)
        ops = wl.verify(specs, outs)
        if wl.fixed_inputs and reps:
            for op, first in zip(ops, reps[0]):
                if op.digest != first.digest:
                    op.failed, op.note = True, "output differs between repeats"
        walls.append(wall)
        reps.append(ops)
    return walls, reps


def op_latencies(wl, walls, reps) -> list:
    """Seconds per op: every op (fresh inputs), each op's median over the
    repeats (the same ops every repeat), or whole repeats."""
    if wl.latency_group == "repeat":
        return walls
    if wl.fixed_inputs:
        return [statistics.median(op.seconds for op in same)
                for same in zip(*reps) if same[0].group == wl.latency_group]
    return [op.seconds for r in reps for op in r
            if wl.latency_group in (None, op.group)]


def accuracy_digits(reps) -> float:
    """Median over repeats of -log10 of the worst relative error of a
    passing op."""
    digits = []
    for ops in reps:
        errs = [op.rel_err for op in ops
                if op.rel_err is not None and not op.failed]
        if errs:
            digits.append(-math.log10(max(max(errs), 1e-17)))
    return statistics.median(digits) if digits else 0.0


def summarize(name, reps, known_defect_groups):
    """Prints per-group failure counts.  Returns attempted, failed, whether
    every failure lies in a known-defect group and every op was verified,
    and the per-group (attempted, failed) counts."""
    ops = [op for r in reps for op in r]
    groups = {}
    for op in ops:
        a, f = groups.get(op.group, (0, 0))
        groups[op.group] = (a + 1, f + op.failed)
    failed = [op for op in ops if op.failed]
    print(f"# {name}: {len(reps)} repeats, {len(ops)} ops, {len(failed)} failed")
    print("# failed/attempted by group: " + ", ".join(
        f"{g} {f}/{a}" for g, (a, f) in groups.items()))
    for note in sorted({op.note for op in failed})[:8]:
        print(f"#   {note[:160]}")
    ok = all(op.verified for op in ops) and all(
        op.group in known_defect_groups for op in failed)
    return len(ops), len(failed), ok, groups


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import hardybeta as hb
    if not Path(hb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: hardybeta imported from {hb.__file__}, "
                         f"not from {SRC}")
    from tracer import Tracer
    from workloads import KNOWN_DEFECT_SLICES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](hb, args.seed, OUT)
    known = KNOWN_DEFECT_SLICES if args.workload == "series-stream" else ()

    if not args.trace:
        setup = setup_times(args.workload, SETUP_PROBES // 2)
        walls, reps = measure(wl, repeat_count(wl, args.seconds))
        setup += setup_times(args.workload, SETUP_PROBES - len(setup))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = np.array(op_latencies(wl, walls, reps)) * 1e3
        attempted, failed, ok, _ = summarize(args.workload, reps, known)
        per = f" (each the median of {len(walls)})" if wl.fixed_inputs else ""
        print(f"# op latency over {len(lat)} samples{per}; wall_s over "
              f"{len(walls)} repeats")
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_ms": float(np.percentile(lat, 50)),
            "op_p90_ms": float(np.percentile(lat, 90)),
            "accuracy_digits": accuracy_digits(reps),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return dict(correct=ok, attempted=attempted, failed=failed,
                    metrics=metrics)

    n = wl.trace_repeats
    walls0, reps0 = measure(wl, n)
    tracer = Tracer()
    walls1, reps1 = measure(wl, n, tracer=tracer)
    attempted, failed, ok, groups = summarize(args.workload, reps0, known)
    same = [a.digest for r in reps0 for a in r] == [b.digest for r in reps1 for b in r]
    self_sum = sum(st.self_s for st in tracer.stats.values())
    print(f"# traced outputs identical to untraced: {same}; self times "
          f"{self_sum:.3f} s within traced wall {sum(walls1):.3f} s: "
          f"{self_sum <= sum(walls1)}")
    stem = OUT / f"trace-{args.workload}-{args.seed}"
    tracer.write_spans(stem.with_suffix(".csv.gz"))
    stem.with_suffix(".json").write_text(json.dumps(tracer.table(), indent=1))

    values = {}
    for name in _SERIES:  # ratios as measured, counts and times per repeat
        layer, field = name.rsplit(".", 1)
        per = 1 if field in ("distinct_frac", "terms_mean") else n
        values[name] = tracer.metric(layer, field) / per
    values["trace.overhead_frac"] = sum(walls1) / sum(walls0) - 1.0
    values["failed_frac"] = failed / attempted
    for s in ("bulk", "deep", "nonnormal", "edge"):
        a, f = groups.get(s, (0, 0))
        values[f"slice.{s}.failed_frac"] = f / a if a else 0.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    return dict(correct=ok and same and self_sum <= sum(walls1),
                attempted=attempted, failed=failed, metrics=metrics)


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hardybeta" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
