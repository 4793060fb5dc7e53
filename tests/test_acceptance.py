"""Acceptance gate: every structural identity at its stated tolerance.

Runs the full randomized residual suite (fixed seed, ``trials=20``,
matrices up to 8-by-8, all four reference weights) and asserts each
criterion individually, printing one pass/fail line per criterion.
Criteria 1, 2, 3 and 7 draw 20 instances per weight, criteria 4, 5 and
8-11 a quarter of that, and criteria 6 and 12 are fixed cases.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines.

A reduced run with counted calls pins the harness: the suite weights are
built once per run, each characteristic family evaluates one hereditary
stack and one gramian table, and every ``RunConfig`` field is read; the
suite's table length is no field.  The counted run is in-process (the
worker count ``_workers`` set to 1), since a forked worker's calls are not
counted in the caller.  A NaN injected into any criterion's residual source
fails that criterion.  The criteria give the same results, in the same
order, forked to worker processes as in-process, and no worker outlives a
run.
"""

import dataclasses
import functools
import io
import multiprocessing
from collections import Counter

import numpy as np
import pytest

import hardybeta.acceptance as acc
import hardybeta.colligation as col
import hardybeta.hereditary as her
import hardybeta.kernels as ker
import hardybeta.model as mod
import hardybeta.syssim as sys_
from hardybeta.acceptance import CRITERIA, RunConfig, run_suite
from hardybeta.weights import DEFAULT_TRUNC

@pytest.fixture(scope="module")
def suite_results():
    cfg = RunConfig(seed=7, trials=20)
    results = run_suite(cfg)
    for res in results:
        print(res.line())
    return {r.number: r for r in results}


@pytest.mark.parametrize("number,name", [
    (1, "stein-identity"),
    (2, "gamma-gramian-duality"),
    (3, "cholesky-colligation"),
    (4, "kernel-identities"),
    (5, "inner-family"),
    (6, "scalar-golden-blaschke"),
    (7, "integer-alpha-identity"),
    (8, "model-roundtrip"),
    (9, "coincidence"),
    (10, "functional-model-checks"),
    (11, "system-transfer-consistency"),
    (12, "contractive-multiplier"),
])
def test_criterion(suite_results, number, name):
    res = suite_results[number]
    assert res.name == name
    assert res.passed, res.line()


def test_every_criterion_covered(suite_results):
    assert len(CRITERIA) == 12
    assert sorted(suite_results) == list(range(1, 13))


@pytest.fixture(scope="module")
def call_counts():
    """Calls of the shared work in one ``trials=4`` run, keyed by
    ``(criterion number, function)``; number 0 is the harness itself.
    Each ``characteristic_family`` call is also counted under
    ``(number, "family", stacks, tables, returned)``: the hereditary stacks
    and gramian tables it evaluated, and whether it returned a family; and
    each read of a config field under ``(number, "config", field)``."""
    counts = Counter()
    current = [0]
    open_families = []  # [stacks, tables] of each family call in progress

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[current[0], name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def in_family(fn, slot):
        def wrapper(*args, **kwargs):
            if open_families:
                open_families[-1][slot] += 1
            return fn(*args, **kwargs)
        return wrapper

    def family(fn):
        def wrapper(*args, **kwargs):
            open_families.append([0, 0])
            returned = False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                stacks, tables = open_families.pop()
                counts[current[0], "family", stacks, tables, returned] += 1
        return wrapper

    def numbered(fn, number):
        def wrapper(*args):
            current[0] = number
            return fn(*args)
        return wrapper

    class Recorded:
        """The config, with every field read counted."""

        def __init__(self, cfg):
            self.cfg = cfg

        def __getattr__(self, name):
            counts[current[0], "config", name] += 1
            return getattr(self.cfg, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acc, "_workers", lambda: 1)
        for module, name in ((acc, "suite_weights"),
                             (acc, "make_weight_hardy"),
                             (acc, "make_weight_beta_alpha"),
                             (her, "classify")):
            label = f"{module.__name__.split('.')[-1]}.{name}"
            mp.setattr(module, name, counted(getattr(module, name), label))
        for module in (her, mod):
            mp.setattr(module, "_hereditary_sums",
                       in_family(module._hereditary_sums, 0))
        for module in (her, col, mod):
            mp.setattr(module, "gramian_table",
                       in_family(module.gramian_table, 1))
        mp.setattr(mod, "characteristic_family",
                   counted(family(mod.characteristic_family),
                           "model.characteristic_family"))
        mp.setattr(acc, "CRITERIA", [numbered(fn, n)
                                     for n, fn in enumerate(CRITERIA, 1)])
        results = run_suite(Recorded(RunConfig(seed=7, trials=4)))
    assert all(r.passed for r in results), [r.line() for r in results
                                            if not r.passed]
    return counts


def test_every_config_field_is_read(call_counts):
    read = {key[2] for key in call_counts if key[1] == "config"}
    assert read == {f.name for f in dataclasses.fields(RunConfig)}


def test_one_table_length():
    # the table length is no setting: the suite's weights take only routes
    # that read no table, and are built at the default length
    assert [f.name for f in dataclasses.fields(RunConfig)] \
        == ["rank_tol", "seed", "trials"]
    assert [w.trunc_len for _, w in acc.suite_weights()] \
        == [DEFAULT_TRUNC] * 4


def test_suite_weights_built_once_per_run(call_counts):
    built = {key: n for key, n in call_counts.items()
             if key[1].startswith("acceptance.")}
    assert built == {(0, "acceptance.suite_weights"): 1,
                     (0, "acceptance.make_weight_hardy"): 1,
                     (0, "acceptance.make_weight_beta_alpha"): 3}


@pytest.mark.parametrize("number", [8, 9, 10])
def test_model_criteria_leave_classification_to_the_family(call_counts,
                                                           number):
    assert call_counts[number, "hereditary.classify"] == 0
    assert call_counts[number, "model.characteristic_family"] >= 4


@pytest.mark.parametrize("number", [6, 8, 9, 10])
def test_each_characteristic_family_classified_once(call_counts, number):
    # every call evaluates one hereditary stack; every family it returns
    # was classified and factored from one gramian table, and a call
    # refused at its defect stops before the table
    calls = {key[2:]: m for key, m in call_counts.items()
             if key[:2] == (number, "family")}
    assert sum(calls.values()) \
        == call_counts[number, "model.characteristic_family"] > 0
    assert {stacks for stacks, _, _ in calls} == {1}
    assert {tables for _, tables, returned in calls if returned} == {1}
    assert all(tables <= 1 for _, tables, _ in calls)


NAN = float("nan")


def _nan(real):
    return lambda *args, **kwargs: NAN


def _nan_matrix(real):
    """Poison a function whose result is an array: NaN in every entry."""
    return lambda *args, **kwargs: real(*args, **kwargs) * NAN


def _nan_field(**fields):
    """Poison a function whose result is a report: NaN in ``fields``."""
    def poison(real):
        return lambda *args, **kwargs: dataclasses.replace(
            real(*args, **kwargs), **fields)
    return poison


def _nan_last_isometry_residual(real):
    # Python's max([1e-12, nan]) is 1e-12: the last place hides a NaN
    def wrapper(*args, **kwargs):
        fam = real(*args, **kwargs)
        fam.isometry_residuals[-1] = NAN
        return fam
    return wrapper


@pytest.mark.parametrize("number,module,name,poison", [
    (1, her, "stein_residual", _nan),
    (2, her, "gamma_map", _nan_matrix),
    (3, acc, "build_family", _nan_last_isometry_residual),
    (4, acc, "_kernel_identity_residuals",
     lambda real: lambda *args: [0.0, NAN, 0.0]),
    (5, ker, "check_inner_family", _nan_field(isometry_residual=NAN)),
    (6, acc, "transfer_eval", lambda real: lambda *args: real(*args) * NAN),
    (7, her, "gamma_k_map", _nan_matrix),
    (8, mod, "model_roundtrip_residual", _nan_field(residual=NAN)),
    # check_coincidence decides coincide = residual <= tol, false on NaN
    (9, mod, "check_coincidence", _nan_field(residual=NAN, coincide=False)),
    (10, mod, "functional_model_colligation", _nan_field(check_input=NAN)),
    (11, sys_, "check_ztransform", _nan),
    (12, ker, "check_contractive_multiplier",
     _nan_field(block_kernel_min_eig=NAN)),
], ids=[f"criterion_{n}" for n in range(1, 13)])
def test_nan_fails_criterion(monkeypatch, number, module, name, poison):
    # Python's max(0.0, nan) is 0.0: a fold with it passed a NaN residual
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    res = CRITERIA[number - 1](RunConfig(trials=4), acc.suite_weights())
    assert res.number == number
    assert not res.passed, res.line()
    assert any(np.isnan(v) for v in res.measured.values()), res.line()


def _verdicts(results):
    return [(r.number, r.name, r.passed, repr(r.measured), r.bound)
            for r in results]


@pytest.mark.parametrize("seed,trials", [(1, 20), (2, 4), (3, 4)])
def test_pool_gives_the_in_process_results(monkeypatch, seed, trials):
    # forked workers and the caller run the same criteria on the same
    # config and weights: the same verdicts and measured reprs, in
    # criterion order, and each line is echoed in that order, while the
    # workers (if any) are alive
    cfg = RunConfig(seed=seed, trials=trials)
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(acc, "_workers", lambda: workers)
        echoed = []
        runs[workers] = run_suite(cfg, echo=lambda line: echoed.append(
            (line, len(multiprocessing.active_children()))))
        assert echoed == [(r.line(), workers if workers > 1 else 0)
                          for r in runs[workers]]
        assert not multiprocessing.active_children()
    assert [r.number for r in runs[2]] == list(range(1, 13))
    assert _verdicts(runs[2]) == _verdicts(runs[1])


@pytest.mark.parametrize("platform,blas,cpus,observed,workers", [
    ("linux", True, 1, False, 1), ("linux", True, 2, False, 2),
    ("linux", True, 16, False, 12), ("linux", False, 16, False, 1),
    ("linux", True, 16, True, 1), ("darwin", True, 16, False, 1)])
def test_worker_count(monkeypatch, platform, blas, cpus, observed, workers):
    # one worker per usable CPU, at most one per criterion, on Linux with
    # an OpenBLAS whose threads a worker can set; in-process without one,
    # and while an observer wraps a criterion
    monkeypatch.setattr(acc.sys, "platform", platform)
    monkeypatch.setattr(acc, "_openblas", lambda: (len, len) if blas else None)
    monkeypatch.setattr(acc.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    if observed:
        monkeypatch.setattr(acc, "CRITERIA", [
            functools.wraps(fn)(lambda *args, fn=fn: fn(*args))
            for fn in CRITERIA])
    assert acc._workers() == workers


@pytest.mark.parametrize("maps", [
    None, "7f00-7f01 r-xp 00000000 08:01 42 /lib/libopenblas.so (deleted)\n"])
def test_unreadable_blas_runs_in_process(monkeypatch, maps):
    # no /proc/self/maps, or an OpenBLAS that cannot be opened again: no
    # thread count to set, so no workers
    def fake_open(path, *args, **kwargs):
        if maps is None:
            raise FileNotFoundError(path)
        return io.StringIO(maps)
    monkeypatch.setattr(acc, "open", fake_open, raising=False)
    assert acc._openblas.__wrapped__() is None
    monkeypatch.setattr(acc, "_openblas", acc._openblas.__wrapped__)
    assert acc._workers() == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_suite_computes_on_one_blas_thread(monkeypatch, workers):
    # whatever the caller's BLAS threads, the suite computes on one, in
    # its workers or in-process, and the caller's count is restored
    if acc._openblas() is None:
        pytest.skip("numpy loaded no OpenBLAS")
    get = acc._openblas()[0]
    before = get()
    monkeypatch.setattr(acc, "_workers", lambda: workers)
    monkeypatch.setattr(acc, "CRITERIA", [
        acc._criterion(n, "blas-threads")(
            lambda cfg, weights: (True, {"threads": get()}, ""))
        for n in (1, 2)])
    results = run_suite(RunConfig())
    assert [r.measured["threads"] for r in results] == [1, 1]
    assert get() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_criterion_fails_by_name(monkeypatch, workers):
    # an exception used to stop the suite; now it is the criterion's
    # failed verdict, under the number and name it has when it runs, and
    # the criteria after it still run; a worker it raised in is joined
    def boom(*args, **kwargs):
        raise ValueError("boom")
    monkeypatch.setattr(acc, "_workers", lambda: workers)
    monkeypatch.setattr(her, "stein_residual", boom)
    monkeypatch.setattr(acc, "CRITERIA", [
        acc.criterion_6_scalar_golden, acc.criterion_1_stein,
        acc.criterion_7_integer_alpha_identity])
    first, second, third = run_suite(RunConfig(trials=1))
    assert (first.number, first.passed) == (6, True)
    assert (second.number, second.name, second.passed) == (
        1, "stein-identity", False)
    assert second.measured == {"error": "ValueError: boom"}
    assert "error=ValueError: boom" in second.line()
    assert (third.number, third.passed) == (7, True)
    assert not multiprocessing.active_children()


def test_stein_criterion_measured_is_reproducible():
    # the criterion's wall time bounds its verdict but stays out of
    # measured, which verify --out writes: same config and seed, same dict
    runs = [acc.criterion_1_stein(RunConfig(trials=1), acc.suite_weights())
            for _ in range(2)]
    assert runs[0].measured == runs[1].measured
    assert list(runs[0].measured) == ["max_residual"]


def test_conditioned_pair_draw_gives_up(monkeypatch):
    # no gramian condition number is <= 0: every draw is replaced
    monkeypatch.setattr(acc, "PAIR_COND_MAX", 0.0)
    monkeypatch.setattr(acc, "DRAW_TRIES", 3)
    with pytest.raises(RuntimeError, match=(
            "^could not draw a well-conditioned observable pair$")):
        acc.random_conditioned_pair(acc.make_weight_hardy(256),
                                    np.random.default_rng(1), 3, 2)


def test_star_hypercontraction_draw_gives_up(monkeypatch):
    def refuse(*args, **kwargs):
        raise acc.ModelHypothesisError("refused")

    monkeypatch.setattr(mod, "characteristic_family", refuse)
    monkeypatch.setattr(acc, "DRAW_TRIES", 3)
    with pytest.raises(RuntimeError,
                       match="^could not draw a star-hypercontraction$"):
        acc.random_star_hypercontraction(acc.make_weight_hardy(256),
                                         np.random.default_rng(1), 2, 4,
                                         1e-10)


def test_coincidence_skips_a_refused_distinct_operator(monkeypatch):
    # criterion 9 builds two families from each drawn one, a unitary
    # conjugate and then a spectrally distinct one; refusing the second
    # call after each draw skips that comparison
    real_draw = acc.random_star_hypercontraction
    real_family = mod.characteristic_family
    since_draw, refused = [], []

    def draw(*args):
        since_draw.clear()
        with monkeypatch.context() as m:
            m.setattr(mod, "characteristic_family", real_family)
            return real_draw(*args)

    def family(w, T, **kwargs):
        since_draw.append(T)
        if len(since_draw) == 2:
            refused.append(T)
            raise acc.ModelHypothesisError("distinct operator refused")
        return real_family(w, T, **kwargs)

    monkeypatch.setattr(acc, "random_star_hypercontraction", draw)
    monkeypatch.setattr(mod, "characteristic_family", family)
    res = acc.criterion_9_coincidence(RunConfig(trials=4), acc.suite_weights())
    assert res.passed, res.line()
    assert len(refused) == 4  # one per weight


def test_coincidence_on_draws_to_norm_099(monkeypatch):
    # drawn to ||T|| = 0.99, the distinct operator T + 0.3 I of some draws
    # is not a contraction: its adjoint fails the model hypothesis by name
    # (ModelHypothesisError), and the comparison is skipped
    refusals = []
    real_family = mod.characteristic_family

    def family(w, T, **kwargs):
        try:
            return real_family(w, T, **kwargs)
        except acc.ModelHypothesisError as exc:
            refusals.append(str(exc))
            raise
    monkeypatch.setattr(acc, "T_NORM_MAX", 0.99)
    monkeypatch.setattr(mod, "characteristic_family", family)
    res = acc.criterion_9_coincidence(RunConfig(seed=3), acc.suite_weights())
    assert res.passed, res.line()
    assert any(r.startswith("adjoint is not a contraction: ")
               for r in refusals)
