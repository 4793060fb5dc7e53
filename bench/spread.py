"""Run the benchmark once per seed and report the spread of every metric.

    python3 bench/spread.py --workload series-stream --seeds 1-10 [--trace 0] [--out FILE]

For each metric prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread ``(q3 - q1) / median``.  ``--out`` writes the
runs, the summary and the machine's provenance (nproc, Python, numpy,
scipy, the BLAS build and its thread count, the git commit and the
``src/`` line count) as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import run  # noqa: F401  sets the BLAS thread count the runs use
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "src_lines": src_lines,
    }


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print(json.dumps({"seed": seed, "correct": res["correct"],
                          "attempted": res["attempted"], "failed": res["failed"],
                          **{k: v["value"] for k, v in res["metrics"].items()}}),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals)
                         if statistics.median(vals) else None}
        print(f"{name:42s} median {summary[name]['median']:.6g}  "
              f"spread {summary[name]['spread']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "provenance": provenance(),
             "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
