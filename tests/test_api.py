"""A family carries its weight: no public function of ``hardybeta`` asks
for a weight next to a colligation or characteristic family, where the two
could disagree."""

import ast
from pathlib import Path

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
    # an operator's eigenvalues come from hereditary.spectral_radius, which
    # OutputPair caches, and its eigenvectors from spectral.diagonalize,
    # which OutputPair.diagonalization caches: every other site reads them
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             for where in linalg_uses(path.read_text(), GENERAL_SOLVES)]
    assert sorted(f.rsplit(":", 1)[0] for f in found) == [
        "hereditary.spectral_radius", "spectral.diagonalize"], found


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
#: the spectral route's gate or its node ladder
SERIES_SITES = {"hereditary._series_sums", "hereditary._stein_sums",
                "hereditary._hereditary_sums", "hereditary._resolvent_table",
                "hereditary.resolvent_scalar"}


def test_series_only_in_the_fallback_sites():
    # a change that sends new traffic to the series engine adds a site here
    found = [f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
             if path.stem != "series"
             for where in series_uses(path.read_text())]
    assert {f.rsplit(":", 1)[0] for f in found} == SERIES_SITES, found
