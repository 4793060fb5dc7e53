"""Time one set-up of a workload in a fresh interpreter.

Prints the seconds taken to import ``hardybeta`` and build the workload's
weight sequences.  ``run.py`` starts this several times and reports the
median as ``setup_s``.

    python3 bench/setup_probe.py series-stream src
"""

import importlib
import sys
import time

#: weight sequences each workload builds: (alpha, stored terms);
#: alpha 1 is the constant Hardy weight
WEIGHTS = {
    "series-stream": [(1.0, 2048), (2.0, 2048), (3.0, 2048), (2.5, 2048)],
    "cli-grid": [(1.0, 256), (2.0, 256)],
}


def build_weights(hb, workload: str) -> list:
    if workload == "acceptance":
        return [w for _, w in hb.acceptance.suite_weights()]
    return [hb.make_weight_hardy(n) if alpha == 1.0
            else hb.make_weight_beta_alpha(alpha, n)
            for alpha, n in WEIGHTS[workload]]


#: the module each workload imports
MODULES = {"series-stream": "hardybeta", "cli-grid": "hardybeta.cli",
           "acceptance": "hardybeta.acceptance"}


def main(workload: str, src: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    importlib.import_module(MODULES[workload])
    build_weights(sys.modules["hardybeta"], workload)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
