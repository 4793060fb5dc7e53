"""Command line front end.

Subcommands wrap the library modules: ``weights`` (tables and summability
report), ``analyze`` (classification report), ``colligate`` (build a family
from operator data), ``charfn`` (characteristic family of an operator),
``kernels`` (kernel grids as CSV/JSON), ``simulate`` (time-domain
trajectories as CSV) and ``verify`` (the acceptance suite).

Exit codes: 0 ok, 2 input error, 3 spectral radius, 4 observability or
model hypothesis, 5 the series did not converge within its term budget or
a defect matrix has a genuinely negative eigenvalue (inconsistent
gramians), 6 verification failure.  Each setting has one spelling: the
weight is ``--hardy``, ``--alpha`` or ``--betas``, and no long option may
be abbreviated.  ``-n/--trunc``, the stored table length, belongs to
``weights`` alone, the one report that lists the table; every other
subcommand reads its weight at every index, and refuses the flag.
``--tol`` (of ``analyze``, the one subcommand with a tolerance) defaults to
1e-8; a ``--tol`` that is negative, NaN or infinite is refused with exit 2
before any work, and so is a ``--k-max`` below the subcommand's least (1
for ``analyze``, 0 for ``colligate`` and ``charfn``).  Every JSON report
embeds its run configuration: the subcommand's own settings among
``tol``, ``rank_tol``, ``k_max``, ``seed`` and ``trials``, and ``trunc``,
the table length of the weight it built; identical configuration and seed
give byte-identical reports.
``kernels --k`` is the shift of the ``shifted`` and ``gap`` kernels, which
build ``G^(0..k+1)``; ``coinvariant`` and ``invariant`` build ``G^(0)``
alone and do not read it.  A ``--k`` below 0 is refused by name with exit
2 for every kind.

``main(argv)`` may be called repeatedly in one process.  The parser is
built on the first call and reused; each call looks its subcommand's
``cmd_<name>`` up in this module by name, so a function replaced here after
the first call (a wrapper, a tracer) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import kernels as ker
from . import model as mod
from . import serialize as ser
from . import syssim as sys_
from .colligation import build_family
from .errors import HardyBetaError, InvalidParameterError, _check_tol
from .hereditary import classify, gramian_table, hermitian_inverse
from .weights import (
    DEFAULT_TRUNC,
    make_weight_beta_alpha,
    make_weight_custom,
    make_weight_hardy,
    reciprocal_coeffs,
)


def _add_weight_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--alpha", type=float,
                   help="weight family parameter alpha > 1")
    g.add_argument("--betas", type=str,
                   help="comma-separated explicit weights, beta_0 = 1")
    g.add_argument("--hardy", action="store_true",
                   help="constant weight (classical Hardy space)")


def _weight_from_args(args):
    """The weight of the flags; ``--betas`` with ``-n`` is refused, since
    the explicit table sets its own length."""
    trunc = getattr(args, "trunc", None)
    if args.betas and trunc is not None:
        raise InvalidParameterError(
            "--betas gives the whole table, so -n/--trunc does not apply")
    n = DEFAULT_TRUNC if trunc is None else trunc
    if args.betas:
        return make_weight_custom([float(x) for x in args.betas.split(",")])
    if args.alpha is not None:
        return make_weight_beta_alpha(args.alpha, n)
    return make_weight_hardy(n)


def _config_from_args(args, w=None) -> dict:
    """The run configuration a report embeds: each setting among ``tol``,
    ``rank_tol``, ``k_max``, ``seed`` and ``trials`` that the subcommand
    has a flag for, with the value it ran at, and with the weight ``w``,
    ``trunc``, its own table length."""
    config = {key: value for key, value in vars(args).items()
              if key in ("tol", "rank_tol", "k_max", "seed", "trials")}
    if w is not None:
        config["trunc"] = w.trunc_len
    return config


def _emit(payload: dict, path):
    """Write the JSON report ``payload`` to the file ``path``, or print it
    when ``path`` is None."""
    text = ser.dumps(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read JSON {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_weights(args) -> int:
    w = _weight_from_args(args)
    n = min(w.trunc_len, 64) if args.head else w.trunc_len
    payload = {
        "config": _config_from_args(args, w),
        "kind": w.kind,
        "alpha": w.alpha,
        "ratio_bound": w.ratio_bound,
        "betas": w.betas[:n + 1],
        "c": reciprocal_coeffs(w, n),
        "wiener": vars(w.wiener),
    }
    _emit(payload, args.out)
    return 0


def cmd_analyze(args) -> int:
    w = _weight_from_args(args)
    pair = ser.pair_from_json(_load_json(args.operator))
    report = classify(w, pair, k_max=args.k_max, tol=args.tol)
    payload = {
        "config": _config_from_args(args, w),
        "weight": ser.weight_to_json(w),
        **ser.classification_to_json(report),
    }
    _emit(payload, args.out)
    return 0


def cmd_colligate(args) -> int:
    w = _weight_from_args(args)
    pair = ser.pair_from_json(_load_json(args.operator))
    fam = build_family(w, pair, k_max=args.k_max, rank_tol=args.rank_tol)
    payload = ser.family_to_json(fam)
    payload["config"] = _config_from_args(args, w)
    _emit(payload, args.out)
    return 0


def cmd_charfn(args) -> int:
    w = _weight_from_args(args)
    if args.t is not None:
        T = np.array([[complex(args.t)]])
    elif args.operator:
        obj = _load_json(args.operator)
        T = ser.complex_matrix_from_json(obj["T"] if "T" in obj else obj)
    else:
        raise InvalidParameterError("charfn needs --t or --operator")
    char = mod.characteristic_family(w, T, k_max=args.k_max,
                                     rank_tol=args.rank_tol)
    payload = ser.char_family_to_json(char)
    payload["config"] = _config_from_args(args, w)
    _emit(payload, args.out)
    return 0


_KERNELS = ("coinvariant", "invariant", "shifted", "gap")


def cmd_kernels(args) -> int:
    if args.k < 0:
        raise InvalidParameterError(
            f"kernels needs --k >= 0, got --k={args.k}")
    w = _weight_from_args(args)
    pair = ser.pair_from_json(_load_json(args.operator))
    if args.grid == "default":
        pts = ker.default_grid()
    else:
        radii = tuple(float(r) for r in args.grid.split(","))
        if not all(0.0 <= r < 1.0 for r in radii):
            raise InvalidParameterError(
                f"--grid radii must lie in [0, 1): {args.grid}")
        pts = ker.default_grid(radii=radii)
    # --k is the shift of shifted and gap; coinvariant and invariant read
    # G^(0) alone, and their report has no k
    g0_only = args.kind in ("coinvariant", "invariant")
    gramians = gramian_table(w, pair, 0 if g0_only else args.k + 1, tol=1e-12)
    if g0_only:
        kernel = (ker.kernel_coinvariant if args.kind == "coinvariant"
                  else ker.kernel_invariant)
        K = kernel(w, pair, pts, pts,
                   hermitian_inverse(gramians[0], args.rank_tol))
    else:
        kernel = (ker.kernel_shifted if args.kind == "shifted"
                  else ker.kernel_gap)
        K = kernel(w, args.k, pair, gramians, pts, pts,
                   rank_tol=args.rank_tol)
    # the same text for CSV and JSON, every float formatted once on and
    # above the diagonal (the grid is Hermitian off it); z outer, zeta
    # inner: the row-major order of the grid's two point axes
    zs = ser.text_array(np.asarray(pts, dtype=complex))
    m = len(zs)
    points = np.stack((np.repeat(zs, m, axis=0), np.tile(zs, (m, 1))), axis=1)
    values = ser.hermitian_text(K).reshape(m * m, pair.p, pair.p, 2)
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write(ser.kernel_grid_csv(points, values))
    if args.out_json:
        payload = {
            "config": _config_from_args(args, w),
            "kind": args.kind,
            **({} if g0_only else {"k": args.k}),
            "points": points,
            "values": values,
        }
        _emit(payload, args.out_json)
    return 0


def cmd_simulate(args) -> int:
    fam = ser.family_from_json(_load_json(args.family))
    inputs = ser.inputs_from_json(_load_json(args.inputs))
    if args.x0:
        x0 = ser.complex_vector_from_json(_load_json(args.x0))
    else:
        x0 = np.zeros(fam.pair.n)
    traj = sys_.simulate(fam, x0, inputs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(ser.trajectory_csv(traj))
    return 0


def cmd_verify(args) -> int:
    # the suite is imported here, for the one subcommand that runs it
    from .acceptance import RunConfig, run_suite
    results = run_suite(RunConfig(rank_tol=args.rank_tol, seed=args.seed,
                                  trials=args.trials),
                        echo=print)
    payload = {
        "config": _config_from_args(args),
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "measured": r.measured,
                      "bound": r.bound} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out:
        _emit(payload, args.out)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 6 if failed else 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later one: it holds no ``cmd_*`` function, so nothing in it
    goes stale.  Long options are not abbreviated: ``--beta`` is not
    ``--betas``."""
    ap = argparse.ArgumentParser(
        prog="hardy-beta",
        description="Weighted Hardy space operator-model toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def options(p, *names, k_max=12):
        """Add the named options shared by several subcommands."""
        spec = {"tol": ("--tol", float, 1e-8),
                "rank_tol": ("--rank-tol", float, 1e-10),
                "k_max": ("--k-max", int, k_max),
                "out": ("--out", str, None)}
        for name in names:
            flag, typ, default = spec[name]
            p.add_argument(flag, dest=name, type=typ, default=default)

    p = add("weights", help="weight tables and summability report")
    _add_weight_args(p)
    p.add_argument("-n", "--trunc", type=int, default=None,
                   help=f"stored table length (default {DEFAULT_TRUNC}); "
                   "not with --betas, which gives its own table")
    options(p, "out")
    p.add_argument("--head", action="store_true",
                   help="print only the first 65 table entries")

    p = add("analyze", help="classification report for (C, A)")
    p.add_argument("operator", help="JSON file with keys A and C")
    _add_weight_args(p)
    options(p, "tol", "k_max", "out", k_max=20)

    p = add("colligate", help="build a colligation family")
    p.add_argument("operator")
    _add_weight_args(p)
    options(p, "rank_tol", "k_max", "out")

    p = add("charfn", help="characteristic function family")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--t", type=str, default=None,
                   help="scalar operator value")
    g.add_argument("--operator", type=str, default=None,
                   help="JSON file with key T")
    _add_weight_args(p)
    options(p, "rank_tol", "k_max", "out")

    p = add("kernels", help="kernel grid as CSV/JSON")
    p.add_argument("operator")
    _add_weight_args(p)
    options(p, "rank_tol")
    p.add_argument("--kind", choices=_KERNELS, default="coinvariant")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--grid", type=str, default="default")
    p.add_argument("--out-csv", dest="out_csv", required=True)
    p.add_argument("--out-json", dest="out_json", default=None)

    p = add("simulate", help="time-domain trajectory as CSV")
    p.add_argument("family", help="family JSON from colligate/charfn")
    p.add_argument("--inputs", required=True,
                   help="JSON ragged list of input vectors")
    p.add_argument("--x0", default=None, help="JSON initial state vector")
    p.add_argument("--out", required=True)

    p = add("verify", help="run the acceptance suite")
    options(p, "rank_tol", "out")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=20)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "tol"):  # refused before any work
            _check_tol(args.tol, "--tol")
        # by name at call time, so a replaced cmd_* (a wrapper) is the one run
        return globals()["cmd_" + args.command](args)
    except HardyBetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
