"""A family carries its weight: no public function of ``hardybeta`` asks
for a weight next to a colligation or characteristic family, where the two
could disagree."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import hardybeta as hb

SRC = Path(__file__).resolve().parents[1] / "src" / "hardybeta"
FAMILIES = {"ColligationFamily", "CharFamily"}


def public_defs():
    """``(module.name, [names in each parameter's annotation])`` of every
    def whose name does not start with ``_``, methods included."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                yield f"{path.stem}.{node.name}", [
                    {n.id for n in ast.walk(p.annotation)
                     if isinstance(n, ast.Name)} if p.annotation else set()
                    for p in params]


def test_no_weight_next_to_a_family():
    defs = dict(public_defs())
    takes_family = {name for name, anns in defs.items()
                    if any(a & FAMILIES for a in anns)}
    # the walk sees the functions that read the family's weight
    assert {"syssim.simulate", "kernels.check_inner_family",
            "model.model_roundtrip_residual"} <= takes_family
    both = sorted(name for name in takes_family
                  if any("WeightSequence" in a for a in defs[name]))
    assert both == []


def _is_two(node) -> bool:
    """Whether the node is the literal 2 or -2 (a spectral norm order)."""
    try:
        return ast.literal_eval(node) in (2, -2)
    except ValueError:  # not a literal
        return False


def _owned_nodes(source: str):
    """``(function, node)`` for every node of ``source``: ``function`` is
    the enclosing top-level def or method, ``<module>`` outside any."""
    tree = ast.parse(source)
    owners = [(node.name, node) for top in tree.body
              for node in ([top] + list(top.body)
                           if isinstance(top, ast.ClassDef) else [top])
              if isinstance(node, ast.FunctionDef)]
    owned = {id(n): name for name, fn in owners for n in ast.walk(fn)}
    for node in ast.walk(tree):
        yield owned.get(id(node), "<module>"), node


def spectral_norms(source: str):
    """``function:line`` of every call in ``source`` that takes a spectral
    norm itself: an ``np.linalg.norm`` of order 2 (or -2), or an SVD with
    ``compute_uv=False``."""
    for owner, node in _owned_nodes(source):
        if not isinstance(node, ast.Call):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        order = node.args[1] if len(node.args) > 1 else kw.get("ord")
        is_norm = isinstance(node.func, ast.Attribute) \
            and node.func.attr == "norm" and order is not None \
            and _is_two(order)
        no_uv = "compute_uv" in kw and isinstance(kw["compute_uv"],
                                                  ast.Constant) \
            and kw["compute_uv"].value is False
        if is_norm or no_uv:
            yield f"{owner}:{node.lineno}"


def test_spectral_norm_check_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "a = np.linalg.norm(X, 2)\n"
        "def f(X):\n"
        "    return np.linalg.norm(X, ord=-2, axis=(1, 2))\n"
        "class C:\n"
        "    def g(self, X):\n"
        "        return max(np.linalg.svd(X, compute_uv=False))\n"
        "def h(X):\n"
        "    return np.linalg.norm(X), np.linalg.norm(X, 'fro'), "
        "np.linalg.svd(X)\n")
    assert list(spectral_norms(source)) == ["<module>:2", "f:4", "g:7"]


def test_one_spectral_norm():
    # every spectral norm of the package goes through hereditary.opnorm,
    # which masks a non-finite matrix out of the SVD
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in spectral_norms(path.read_text())]
    assert [f.rsplit(":", 1)[0] for f in found] == ["hereditary.opnorm"], \
        found


EIGEN_SOLVES = {"eigh", "eigvalsh"}
#: the eigen-solves of a general (non-Hermitian) matrix
GENERAL_SOLVES = {"eig", "eigvals"}


def linalg_uses(source: str, names):
    """``function:line`` of every use in ``source`` of a function of
    ``names`` from a ``linalg`` module (``np.linalg``, ``numpy.linalg``,
    ``scipy.linalg``): a call of it as an attribute of the module, or an
    import of it from one."""
    for owner, node in _owned_nodes(source):
        call = isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in names \
            and ast.unparse(node.func.value).endswith("linalg")
        imported = isinstance(node, ast.ImportFrom) \
            and (node.module or "").endswith("linalg") \
            and any(a.name in names for a in node.names)
        if call or imported:
            yield f"{owner}:{node.lineno}"


def hermitian_eigen_solves(source: str):
    """``function:line`` of every direct Hermitian eigen-solve in
    ``source``: ``eigh`` or ``eigvalsh`` (``linalg_uses``)."""
    return linalg_uses(source, EIGEN_SOLVES)


def test_eigen_solve_check_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "lam = np.linalg.eigvalsh(X)\n"
        "def f(X):\n"
        "    return numpy.linalg.eigh(X, UPLO='U')\n"
        "class C:\n"
        "    def g(self, X):\n"
        "        from scipy.linalg import eigh as e\n"
        "        return scipy.linalg.eigvalsh(X)\n"
        "def h(X):\n"
        "    return eigh(X), her.eigh(X, vectors=False), "
        "np.linalg.eig(X), np.linalg.eigvals(X)\n")
    assert list(hermitian_eigen_solves(source)) == [
        "<module>:2", "f:4", "g:7", "g:8"]


def test_one_hermitian_eigen_solve():
    # every Hermitian eigen-solve of the package goes through
    # hereditary.eigh, which masks a non-finite matrix out of LAPACK; the
    # Gauss-Jacobi rule solves its own real tridiagonal Jacobi matrix
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in hermitian_eigen_solves(path.read_text())]
    assert sorted({f.rsplit(":", 1)[0] for f in found}) == [
        "hereditary.eigh", "spectral._gauss_jacobi"], found
    assert len(found) == 3, found


def test_general_eigen_solve_check_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "d = np.linalg.eigvals(X)\n"
        "def f(X):\n"
        "    return numpy.linalg.eig(X)\n"
        "class C:\n"
        "    def g(self, X):\n"
        "        from scipy.linalg import eig as e\n"
        "        return scipy.linalg.eigvals(X)\n"
        "def h(X):\n"
        "    return np.linalg.eigh(X), np.linalg.eigvalsh(X), eig(X), "
        "spectral.diagonalize(X), her.spectral_radius(X)\n")
    assert list(linalg_uses(source, GENERAL_SOLVES)) == [
        "<module>:2", "f:4", "g:7", "g:8"]


def test_one_general_eigen_solve_of_each_kind():
    # an operator's eigenvalues come from hereditary.spectral_radius and
    # its eigenvectors from spectral.diagonalize, both cached by
    # hereditary._Operator (test_one_door_for_the_operator): every other
    # site reads them
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in linalg_uses(path.read_text(), GENERAL_SOLVES)]
    assert sorted(f.rsplit(":", 1)[0] for f in found) == [
        "hereditary.spectral_radius", "spectral.diagonalize"], found


def calls_of(source: str, name: str):
    """The owner of every call in ``source`` of a function named ``name``,
    however it is reached (``name(..)``, ``module.name(..)``): the
    enclosing top-level def, ``Class.method`` for a method, or
    ``<module>``."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            owners = [(f"{top.name}.{node.name}", node) for node in top.body
                      if isinstance(node, ast.FunctionDef)]
        else:
            owners = [(top.name if isinstance(top, ast.FunctionDef)
                       else "<module>", top)]
        for owner, tree in owners:
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and name == (
                        getattr(func, "id", None) or getattr(func, "attr",
                                                             None)):
                    yield owner


def test_call_check_sees_every_spelling():
    source = (
        "rho = spectral_radius(A)\n"
        "def f(A, pair):\n"
        "    return her.spectral_radius(A), pair.spectral_radius\n"
        "class C:\n"
        "    def g(self):\n"
        "        return spectral.diagonalize(self.A)\n"
        "    def spectral_radius(self):\n"
        "        return spectral_radius(self.A)\n")
    assert list(calls_of(source, "spectral_radius")) == [
        "<module>", "f", "C.spectral_radius"]
    assert list(calls_of(source, "diagonalize")) == ["C.g"]


def test_one_door_for_the_operator():
    # an operator's diagonalization and spectral radius are made by the
    # cache of hereditary._Operator (an OutputPair is one) and read from
    # it; only the suite's random pairs, which scale a fresh matrix, call
    # spectral_radius as well
    found = {name: sorted(f"{path.stem}.{owner}"
                          for path in sorted(SRC.glob("*.py"))
                          for owner in calls_of(path.read_text(), name))
             for name in ("diagonalize", "spectral_radius")}
    assert found == {
        "diagonalize": ["hereditary._Operator.diagonalization"],
        "spectral_radius": ["acceptance.random_pair",
                            "hereditary._Operator.spectral_radius"]}


#: the index of each factor of a broadcast Kronecker product
#: ``L[:, None, :, None] * R[None, :, None, :]``, ``:`` as "full" and a new
#: axis as "new"
KRON_AXES = {("full", "new", "full", "new"), ("new", "full", "new", "full")}


def _axes(node):
    """The index of a subscript as a tuple of "full" (``:``) and "new"
    (``None`` or ``np.newaxis``), or None for any other node."""
    if not (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Tuple)):
        return None
    axes = []
    for e in node.slice.elts:
        if isinstance(e, ast.Slice) and e.lower is e.upper is e.step is None:
            axes.append("full")
        elif ast.unparse(e) == "None" or ast.unparse(e).endswith("newaxis"):
            axes.append("new")
        else:
            return None
    return tuple(axes)


def kron_sites(source: str):
    """The function of every Kronecker product in ``source``: a call of a
    function named ``kron``, however it is reached, or the broadcast
    product ``L[:, None, :, None] * R[None, :, None, :]``, whose reshape to
    ``(n^2, n^2)`` is ``kron(L, R)``."""
    for owner, node in _owned_nodes(source):
        func = getattr(node, "func", None)
        call = isinstance(node, ast.Call) and "kron" in (
            getattr(func, "id", None), getattr(func, "attr", None))
        outer = isinstance(node, ast.BinOp) \
            and isinstance(node.op, ast.Mult) \
            and {_axes(node.left), _axes(node.right)} == KRON_AXES
        if call or outer:
            yield owner


def test_kron_check_sees_every_spelling():
    source = (
        "K = np.kron(A.conj().T, A.T)\n"
        "def f(L, R):\n"
        "    return kron(L, R)\n"
        "def g(L, R):\n"
        "    K = L[:, None, :, None] * R[None, :, None, :]\n"
        "    return K.reshape(4, 4)\n"
        "def h(L, R):\n"
        "    return R[np.newaxis, :, np.newaxis, :] * L[:, np.newaxis, :,\n"
        "                                              np.newaxis]\n"
        "def grid(zs, X):\n"
        "    x = zs[:, None] * np.conj(zs)[None, :]\n"
        "    return x[:, :, None, None] * X[None, None, :, :]\n")
    assert sorted(kron_sites(source)) == ["<module>", "f", "g", "h"]


def test_one_kronecker_matrix():
    # every Kronecker matrix of L: X -> A* X A is formed by the one solver
    # of a polynomial in L, which refuses an overflow by name
    found = [f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
             for owner in kron_sites(path.read_text())]
    assert found == ["hereditary._kron_solver"]


#: the stored tables of a weight, read by subscript
TABLES = {"betas", "inv_betas", "c_coeffs"}


def table_reads(source: str):
    """The function of every read of a weight's stored table in
    ``source``: ``trunc_len``, or a subscript of ``betas``, ``inv_betas``
    or ``c_coeffs``."""
    for owner, node in _owned_nodes(source):
        if isinstance(node, ast.Attribute) and node.attr == "trunc_len" \
                or isinstance(node, ast.Subscript) \
                and getattr(node.value, "attr", None) in TABLES:
            yield owner


def test_table_read_check_sees_every_spelling():
    source = ("def f(w, k):\n"
              "    return w.inv_betas[k] * w.betas[:k].sum()\n"
              "def g(fam):\n"
              "    return fam.weight.c_coeffs[1:], fam.weight.trunc_len\n"
              "def h(w, k):\n"
              "    return w._entries(k)[1], w.betas, len(w.inv_betas)\n")
    assert sorted(table_reads(source)) == ["f", "f", "g", "g"]


def test_stored_tables_read_by_the_reports_alone():
    # a weight is its R, not its table: outside weights.py only the report
    # writers read the table or its length; every other read, the series'
    # rows included, takes WeightSequence._entries or reciprocal_coeffs
    # (through hereditary_rows), which answer at every index for every
    # kind of weight
    found = sorted(f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
                   if path.stem != "weights"
                   for owner in table_reads(path.read_text()))
    assert found == sorted(
        ["cli._config_from_args"] + ["cli.cmd_weights"] * 3
        + ["serialize.weight_to_json"] * 2)


def test_one_cross_product():
    # the point-pair block product X[i] Y[j]^* of the kernel grids, the
    # model round trip and the suite's kernel identities has one
    # implementation
    found = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "_cross"]
    assert found == ["kernels._cross"]


def _empty_input_calls():
    """Each entry that takes a grid or a step sequence, called with an
    empty one, and its refusal."""
    w = hb.make_weight_hardy(64)
    fam = hb.build_family(w, hb.OutputPair([[0.5]], [[0.866]]), k_max=2)
    char = hb.characteristic_family(w, [[0.5]], k_max=2)
    unit = lambda z: np.eye(1)  # noqa: E731
    grid = "a multiplier check needs at least one grid point"
    return {
        "check_contractive_multiplier": (
            lambda: hb.check_contractive_multiplier(w, unit, []), grid),
        "check_hardy_to_weighted_multiplier": (
            lambda: hb.check_hardy_to_weighted_multiplier(w, unit, []), grid),
        "model_roundtrip_residual": (
            lambda: hb.model_roundtrip_residual(char, grid=[]),
            "model_roundtrip_residual needs at least one grid point"),
        "check_coincidence": (
            lambda: hb.check_coincidence(fam, fam, grid=[]),
            "check_coincidence needs at least one grid point"),
        "transfer_eval": (lambda: hb.transfer_eval(fam, [], 0.3),
                          "transfer_eval needs at least one step k"),
    }


EMPTY_INPUT_CALLS = _empty_input_calls()


@pytest.mark.parametrize("name", sorted(EMPTY_INPUT_CALLS))
def test_an_empty_input_is_refused_by_name(name):
    # these raised raw numpy errors: "need at least one array to stack",
    # "cannot reshape array of size 0" or "zero-size array to reduction
    # operation maximum which has no identity"
    call, match = EMPTY_INPUT_CALLS[name]
    with pytest.raises(hb.InvalidParameterError, match=f"^{match}$"):
        call()


def _operator_entries():
    """Each entry that takes an operator ``A``, called with ``A`` and, where
    it takes one, ``X``."""
    w = hb.make_weight_hardy(64)
    return {
        "gamma_map": lambda A, X: hb.gamma_map(w, A, X),
        "gamma_k_map": lambda A, X: hb.gamma_k_map(w, 1, A, X),
        "gamma_binomial": lambda A, X: hb.gamma_binomial(2, A, X),
        "delta_limit": lambda A, X: hb.delta_limit(w, A, X),
        "resolvents": lambda A, X: hb.resolvents(w, 0, A, [0.1, 0.2]),
        "resolvent_apply": lambda A, X: hb.resolvent_apply(w, 0, A, 0.1),
        "OutputPair": lambda A, X: hb.OutputPair(
            A=A, C=np.ones((1, np.shape(A)[1]))),
    }


OPERATOR_ENTRIES = _operator_entries()
#: the entries that take an ``X`` beside ``A``
X_ENTRIES = ["delta_limit", "gamma_binomial", "gamma_k_map", "gamma_map"]


@pytest.mark.parametrize("name", sorted(OPERATOR_ENTRIES))
@pytest.mark.parametrize("A,match", [
    (np.ones((2, 3)), "A must be square"),
    (np.zeros((0, 0)), "the state space must have n >= 1"),
], ids=["2x3", "0x0"])
def test_the_door_refuses_a_bad_shape(name, A, match):
    # these raised raw numpy errors (a broadcast, a matmul core dimension,
    # "Last 2 dimensions of the array must be square", a reshape of size
    # 0), or answered a 0x0 A (resolvents, gamma_binomial)
    with pytest.raises(hb.InvalidParameterError, match=f"^{match}$"):
        OPERATOR_ENTRIES[name](A, np.eye(A.shape[0]))


@pytest.mark.parametrize("name", X_ENTRIES)
def test_an_X_not_of_A_shape_is_refused(name):
    with pytest.raises(hb.InvalidParameterError, match=re.escape(
            "X has shape (3, 3), expected (2, 2) like A")):
        OPERATOR_ENTRIES[name](0.5 * np.eye(2), np.eye(3))


def tol_entries():
    """``module.name`` and the callable of every public function and public
    method of the package's modules with a ``tol`` parameter; the series
    engine, which sums to the checked tolerance of its callers, is left
    out."""
    for info in pkgutil.iter_modules(hb.__path__):
        if info.name == "series":
            continue
        module = importlib.import_module(f"hardybeta.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            fns = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                   if inspect.isfunction(f) and not m.startswith("_")] \
                if inspect.isclass(obj) else [(name, obj)]
            for qual, fn in fns:
                if inspect.isfunction(fn) \
                        and "tol" in inspect.signature(fn).parameters:
                    yield f"{info.name}.{qual}", fn


TOL_ENTRIES = dict(tol_entries())


def test_the_walk_sees_every_tol():
    exported = {name for name, fn in vars(hb).items()
                if inspect.isfunction(fn)
                and "tol" in inspect.signature(fn).parameters}
    assert len(exported) == 28
    assert exported <= {name.rsplit(".", 1)[1] for name in TOL_ENTRIES}
    assert "serialize.family_from_json" in TOL_ENTRIES
    assert len(TOL_ENTRIES) == 29


@pytest.mark.parametrize("name", sorted(TOL_ENTRIES))
def test_bad_tol_is_refused_at_the_door(name):
    # before any work: the other arguments (None here) are never read
    fn = TOL_ENTRIES[name]
    params = list(inspect.signature(fn).parameters.values())
    needed = [None for p in params[:[p.name for p in params].index("tol")]
              if p.default is inspect.Parameter.empty]
    for bad in (-1, np.nan, np.inf):
        with pytest.raises(hb.InvalidParameterError) as info:
            fn(*needed, tol=bad)
        assert str(info.value) == \
            f"tol must be a finite number >= 0, got {bad}"


def _k_max_calls():
    """Each entry that refuses a ``k_max`` below its least by name, with a
    call of it at a given ``k_max``."""
    w = hb.make_weight_beta_alpha(2.5, 256)
    pair = hb.OutputPair(A=[[0.5]], C=[[0.866]])
    T = [[0.5]]
    return {
        "classify": (1, lambda k: hb.classify(w, pair, k_max=k)),
        "delta_limit": (1, lambda k: hb.delta_limit(w, [[0.5]], [[1.0]],
                                                    k_max=k)),
        "build_family": (0, lambda k: hb.build_family(w, pair, k_max=k)),
        "characteristic_family": (
            0, lambda k: hb.characteristic_family(w, T, k_max=k)),
        "defect_form_family": (
            0, lambda k: hb.defect_form_family(w, T, k_max=k)),
        "check_inner_family": (
            0, lambda k: hb.check_inner_family(
                hb.build_family(w, pair, k_max=2), k_max=k, J=10)),
    }


@pytest.mark.parametrize("name", sorted(_k_max_calls()))
def test_k_max_below_its_least_is_refused_by_name(name):
    least, call = _k_max_calls()[name]
    call(least)  # the least k_max is answered
    for k in (least - 1, -1):
        with pytest.raises(hb.InvalidParameterError) as info:
            call(k)
        assert str(info.value) == \
            f"{name} needs k_max >= {least}, got k_max={k}"


def series_uses(source: str):
    """``function:line`` of every use of a name from the series engine in
    ``source``: an attribute of a module named ``series``, however it is
    reached, or a name imported from one."""
    for owner, node in _owned_nodes(source):
        attr = isinstance(node, ast.Attribute) \
            and ast.unparse(node.value).split(".")[-1] == "series"
        imported = isinstance(node, ast.ImportFrom) \
            and (node.module or "").split(".")[-1] == "series"
        if attr or imported:
            yield f"{owner}:{node.lineno}"


def test_series_check_sees_every_spelling():
    source = (
        "from . import series\n"
        "q = series.decay_rate(0.5)\n"
        "def f(X):\n"
        "    from .series import adaptive_sum\n"
        "    return adaptive_sum(X)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return hardybeta.series.RowTails\n"
        "def h(series_rows):\n"
        "    return series_rows.cut, spectral.shifted(w, ks, x)\n")
    assert sorted(series_uses(source), key=lambda f: int(f.split(":")[1])) \
        == ["<module>:2", "f:4", "g:8"]


#: the fallback sites: the gramians, resolvents and scalars of custom
#: weights (their maps take the rational form), and non-integer alpha past
#: the spectral route's gate or its node ladder; the conjugation sums of
#: the gramians and the maps reach the engine through ``_series_sums``,
#: which takes its rate from the operator
SERIES_SITES = {"hereditary._series_sums", "hereditary._resolvent_table",
                "hereditary.resolvent_scalar"}


def test_series_only_in_the_fallback_sites():
    # a change that sends new traffic to the series engine adds a site here
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             if path.stem != "series"
             for where in series_uses(path.read_text())]
    assert {f.rsplit(":", 1)[0] for f in found} == SERIES_SITES, found
