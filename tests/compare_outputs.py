"""Compare the output files of a git revision with the working tree's.

Extracts the revision with ``git archive`` and copies the working tree (its
tracked and untracked files that git does not ignore) into temporary
directories.  In each, for every seed, it runs

    hardy-beta verify --seed S --out verify-S.json
    python3 bench/run.py --workload cli-grid --seed S --seconds 10 --trace 0

and one repeat of its own ``bench/workloads.SeriesStream`` for the seed on
its own ``src/``, in a subprocess.  It then prints, per seed, whether the
two ``verify`` reports differ and which files of ``bench/out/cli-grid``
differ.  For a JSON file it also prints the keys whose values differ, with
list indices folded to ``[]`` and a count of the places, and a scalar
outside a list with its two values; a key present on one side only is
marked ``(only REV)`` or ``(only tree)``.  For series-stream it prints how
many op outputs differ per (query, weight, slice), an output compared by
its bits (an array), its flag and residual values (``classify``, whose
differing keys it names as for JSON) or its error's type and message.
Nothing under the repository is written.  Run from the repository root::

    python tests/compare_outputs.py REV [--seeds 1 2 3]

The name keeps pytest from collecting it.
"""

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(rev: str, dest: Path):
    """The files of ``rev``, from ``git archive``, under ``dest``."""
    archive = dest.with_suffix(".tar")
    archive.write_bytes(git("archive", "--format=tar", rev))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_tree(dest: Path):
    """The working tree's tracked and untracked, not ignored, files under
    ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_outputs(tree: Path, seed: int) -> dict:
    """Run both commands in ``tree`` for ``seed``; the name and bytes of
    every output file."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    verify = tree / f"verify-{seed}.json"
    subprocess.run([sys.executable, "-m", "hardybeta.cli", "verify",
                    "--seed", str(seed), "--out", str(verify)],
                   cwd=tree, env=env, check=True, capture_output=True)
    subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-grid",
                    "--seed", str(seed), "--seconds", "10", "--trace", "0"],
                   cwd=tree, env=env, check=True, capture_output=True)
    grid = tree / "bench" / "out" / "cli-grid"
    files = {"verify": verify.read_bytes()}
    files.update((f"cli-grid/{p.name}", p.read_bytes())
                 for p in sorted(grid.iterdir()))
    return files


#: one series-stream repeat in a tree (the working directory), pickled as
#: ``((query, weight, slice), output)`` per op, where an output is an
#: array, ``{"flags": ..., "residuals": ...}`` for ``classify``, or its
#: error's type and message
SERIES = """
import json, pickle, sys
sys.path[:0] = ["bench", "src"]
import hardybeta as hb
from workloads import SeriesStream
wl = SeriesStream(hb, int(sys.argv[1]), None)
specs = wl.prepare(0)
ops = []
for spec, (out, _) in zip(specs, wl.run(specs)[1]):
    a = wl.alphas[spec["wi"]]
    if isinstance(out, Exception):
        out = f"{type(out).__name__}: {out}"
    elif isinstance(out, tuple):  # plain Python values, bit for bit
        out = json.loads(json.dumps({"flags": out[0], "residuals": out[1]},
                                    default=lambda x: x.item()))
    ops.append(((spec["query"], "hardy" if a == 1 else f"beta_{a:g}",
                 spec["slice"]), out))
pickle.dump(ops, sys.stdout.buffer)
"""


def series_outputs(tree: Path, seed: int) -> list:
    """The ops of one series-stream repeat of ``tree`` for ``seed``."""
    out = subprocess.run([sys.executable, "-c", SERIES, str(seed)],
                         cwd=tree, check=True, capture_output=True).stdout
    return pickle.loads(out)


def same_output(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and not differing_keys(a, b)


def report_series(old: list, new: list):
    differ, total, keys = Counter(), Counter(), Counter()
    for (group, a), (_, b) in zip(old, new):
        total[group] += 1
        if not same_output(a, b):
            differ[group] += 1
            if isinstance(a, dict) and isinstance(b, dict):
                keys += differing_keys(a, b)
    print(f"  series-stream: {sum(total.values()) - sum(differ.values())} "
          f"of {sum(total.values())} op outputs identical")
    for group in sorted(differ):
        print(f"    {' '.join(group)}: {differ[group]} of {total[group]} "
              "differ")
    if keys:
        print("    classify keys: " + ", ".join(
            f"{k} x{c}" if c > 1 else k for k, c in sorted(keys.items())))


def differing_keys(a, b, path="") -> Counter:
    """The key paths at which two parsed JSON values differ, list indices
    folded to ``[]``, with the number of places each was seen."""
    out = Counter()
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            sub = f"{path}.{key}" if path else str(key)
            if key not in b:
                out[f"{sub} (only REV)"] += 1
            elif key not in a:
                out[f"{sub} (only tree)"] += 1
            else:
                out += differing_keys(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            out += differing_keys(x, y, path + "[]")
    elif a != b:
        path = path or "(the value)"
        if "[]" not in path and not isinstance(a, (dict, list)) \
                and not isinstance(b, (dict, list)):
            path += f" ({json.dumps(a)} -> {json.dumps(b)})"
        out[path] += 1
    return out


def report(seed: int, old: dict, new: dict):
    names = sorted(old.keys() | new.keys())
    same = [n for n in names if old.get(n) == new.get(n)]
    print(f"seed {seed}: {len(same)} of {len(names)} files identical")
    for name in names:
        if name in same:
            continue
        if name not in old or name not in new:
            print(f"  {name}: only in {'tree' if name in new else 'REV'}")
            continue
        try:
            keys = differing_keys(json.loads(old[name]), json.loads(new[name]))
        except ValueError:  # not JSON: the bytes alone
            print(f"  {name}: bytes differ")
            continue
        print(f"  {name}: " + (", ".join(
            f"{k} x{c}" if c > 1 else k for k, c in sorted(keys.items()))
            or "same values, bytes differ"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        old_tree, new_tree = Path(tmp) / "rev", Path(tmp) / "tree"
        extract(args.rev, old_tree)
        copy_tree(new_tree)
        for seed in args.seeds:
            report(seed, run_outputs(old_tree, seed),
                   run_outputs(new_tree, seed))
            report_series(series_outputs(old_tree, seed),
                          series_outputs(new_tree, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
