"""Command line front end.

Subcommands wrap the library modules: ``weights`` (tables and summability
report), ``analyze`` (classification report), ``colligate`` (build a family
from operator data), ``charfn`` (characteristic family of an operator),
``kernels`` (kernel grids as CSV/JSON), ``simulate`` (time-domain
trajectories as CSV) and ``verify`` (the acceptance suite).

Exit codes: 0 ok, 2 input error, 3 spectral radius, 4 observability or
model hypothesis, 5 non-convergence, 6 verification failure.  The default
tolerance honors the ``HARDY_BETA_TOL`` environment variable.  Every JSON
report embeds the run configuration so outputs are reproducible; identical
configuration and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import kernels as ker
from . import model as mod
from . import serialize as ser
from . import syssim as sys_
from .acceptance import SUITE_TRUNC, RunConfig, run_suite
from .colligation import build_family
from .errors import HardyBetaError, InvalidParameterError
from .hereditary import classify, gramian_table, hermitian_inverse
from .weights import (
    DEFAULT_TRUNC,
    make_weight_beta_alpha,
    make_weight_custom,
    make_weight_hardy,
    reciprocal_coeffs,
)


def _default_tol() -> float:
    env = os.environ.get("HARDY_BETA_TOL")
    return float(env) if env else 1e-8


def _add_weight_args(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--alpha", type=float,
                   help="weight family parameter alpha > 1")
    g.add_argument("--betas", type=str,
                   help="comma-separated explicit weights, beta_0 = 1")
    g.add_argument("--hardy", action="store_true",
                   help="constant weight (classical Hardy space)")
    g.add_argument("--beta", type=str,
                   help="shorthand: '1'/'hardy' or a float alpha > 1")
    p.add_argument("-n", "--trunc", type=int, default=DEFAULT_TRUNC,
                   help="stored table length (default %(default)s)")


def _weight_from_args(args):
    if getattr(args, "betas", None):
        return make_weight_custom([float(x) for x in args.betas.split(",")])
    if getattr(args, "alpha", None) is not None:
        return make_weight_beta_alpha(args.alpha, args.trunc)
    if getattr(args, "beta", None):
        token = args.beta.strip().lower()
        if token in ("1", "hardy"):
            return make_weight_hardy(args.trunc)
        return make_weight_beta_alpha(float(token), args.trunc)
    return make_weight_hardy(args.trunc)


def _config_from_args(args) -> RunConfig:
    return RunConfig(tol=getattr(args, "tol", _default_tol()),
                     rank_tol=getattr(args, "rank_tol", 1e-10),
                     k_max=getattr(args, "k_max", 12),
                     trunc=getattr(args, "trunc", DEFAULT_TRUNC),
                     seed=getattr(args, "seed", 7),
                     trials=getattr(args, "trials", 20))


def _emit(args, payload: dict):
    text = ser.dumps(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
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
        "config": _config_from_args(args).to_json(),
        "kind": w.kind,
        "alpha": w.alpha,
        "ratio_bound": w.ratio_bound,
        "betas": w.betas[:n + 1],
        "c": reciprocal_coeffs(w, n),
        "wiener": vars(w.wiener),
    }
    _emit(args, payload)
    return 0


def cmd_analyze(args) -> int:
    w = _weight_from_args(args)
    pair = ser.pair_from_json(_load_json(args.operator))
    report = classify(w, pair, k_max=args.k_max, tol=args.tol)
    payload = {
        "config": _config_from_args(args).to_json(),
        "weight": ser.weight_to_json(w),
        "flags": report.flags,
        "residuals": report.residuals,
        "k_checked": report.k_checked,
        "certified_all_k": report.certified_all_k,
    }
    _emit(args, payload)
    return 0


def cmd_colligate(args) -> int:
    w = _weight_from_args(args)
    pair = ser.pair_from_json(_load_json(args.operator))
    fam = build_family(w, pair, k_max=args.k_max, rank_tol=args.rank_tol)
    payload = ser.family_to_json(fam)
    payload["config"] = _config_from_args(args).to_json()
    _emit(args, payload)
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
    payload["config"] = _config_from_args(args).to_json()
    _emit(args, payload)
    return 0


_KERNELS = ("coinvariant", "invariant", "shifted", "gap")


def cmd_kernels(args) -> int:
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
    gramians = gramian_table(w, pair, args.k + 1, tol=1e-12)
    gram_inv = hermitian_inverse(gramians[0], args.rank_tol)
    if args.kind == "coinvariant":
        K = ker.kernel_coinvariant(w, pair, pts, pts, gram_inv)
    elif args.kind == "invariant":
        K = ker.kernel_invariant(w, pair, pts, pts, gram_inv)
    elif args.kind == "shifted":
        K = ker.kernel_shifted(w, args.k, pair, gramians, pts, pts)
    else:
        K = ker.kernel_gap(w, args.k, pair, gramians, pts, pts)
    # z outer, zeta inner: the row-major order of the grid's two point axes
    zs = np.asarray(pts, dtype=complex)
    points = np.stack((np.repeat(zs, len(zs)), np.tile(zs, len(zs))), axis=-1)
    values = K.reshape(len(points), pair.p, pair.p)
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write(ser.kernel_grid_csv(points, values))
    if args.out_json:
        payload = {
            "config": _config_from_args(args).to_json(),
            "kind": args.kind,
            "k": args.k,
            "points": points,
            "values": values,
        }
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(payload) + "\n")
    return 0


def cmd_simulate(args) -> int:
    fam = ser.family_from_json(_load_json(args.family))
    w = fam.weight
    inputs = ser.inputs_from_json(_load_json(args.inputs))
    if args.x0:
        x0 = ser.complex_vector_from_json(_load_json(args.x0))
    else:
        x0 = np.zeros(fam.pair.n)
    traj = sys_.simulate(w, fam, x0, inputs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(ser.trajectory_csv(traj))
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    results = run_suite(cfg, echo=print)
    payload = {
        "config": cfg.to_json(),
        "criteria": [{"number": r.number, "name": r.name,
                      "passed": r.passed, "measured": r.measured,
                      "bound": r.bound} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ser.dumps(payload) + "\n")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 6 if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardy-beta",
        description="Weighted Hardy space operator-model toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def options(p, *names, k_max=12):
        """Add the named options shared by several subcommands."""
        spec = {"tol": ("--tol", float, _default_tol()),
                "rank_tol": ("--rank-tol", float, 1e-10),
                "k_max": ("--k-max", int, k_max),
                "out": ("--out", str, None)}
        for name in names:
            flag, typ, default = spec[name]
            p.add_argument(flag, dest=name, type=typ, default=default)

    p = sub.add_parser("weights", help="weight tables and summability report")
    _add_weight_args(p)
    options(p, "out")
    p.add_argument("--head", action="store_true",
                   help="print only the first 65 table entries")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("analyze", help="classification report for (C, A)")
    p.add_argument("operator", help="JSON file with keys A and C")
    _add_weight_args(p)
    options(p, "tol", "k_max", "out", k_max=20)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("colligate", help="build a colligation family")
    p.add_argument("operator")
    _add_weight_args(p)
    options(p, "rank_tol", "k_max", "out")
    p.set_defaults(func=cmd_colligate)

    p = sub.add_parser("charfn", help="characteristic function family")
    p.add_argument("--t", type=str, default=None,
                   help="scalar operator value")
    p.add_argument("--operator", type=str, default=None,
                   help="JSON file with key T")
    _add_weight_args(p)
    options(p, "rank_tol", "k_max", "out")
    p.set_defaults(func=cmd_charfn)

    p = sub.add_parser("kernels", help="kernel grid as CSV/JSON")
    p.add_argument("operator")
    _add_weight_args(p)
    options(p, "rank_tol")
    p.add_argument("--kind", choices=_KERNELS, default="coinvariant")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--grid", type=str, default="default")
    p.add_argument("--out-csv", dest="out_csv", required=True)
    p.add_argument("--out-json", dest="out_json", default=None)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("simulate", help="time-domain trajectory as CSV")
    p.add_argument("family", help="family JSON from colligate/charfn")
    p.add_argument("--inputs", required=True,
                   help="JSON ragged list of input vectors")
    p.add_argument("--x0", default=None, help="JSON initial state vector")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance suite")
    options(p, "rank_tol", "out")
    p.add_argument("--trunc", type=int, default=SUITE_TRUNC)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HardyBetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
