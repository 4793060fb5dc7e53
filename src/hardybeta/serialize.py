"""JSON and CSV interchange formats.

Complex scalars are encoded as ``[re, im]`` pairs and complex matrices as
row-major nested lists of such pairs, so operator data looks like
``{"A": [[[re, im], ...], ...], "C": [[...], ...]}``.  Weights serialize as
``{"kind": "beta_alpha", "alpha": 2.0, "n": 256}`` or
``{"kind": "custom", "betas": [...]}``.

``dumps`` writes the bytes that the stdlib ``json`` encoder writes with
``sort_keys=True`` and ``indent=1``: a one-space indent, sorted keys,
floats in their shortest round-trip form (``float.__repr__``, so dump/load
cycles are bit-stable), the tokens ``NaN``, ``Infinity`` and ``-Infinity``
for non-finite floats, and strings with ASCII escapes.

Arrays are written from text: ``text_array`` formats each float once (a
complex array gains a trailing ``[re, im]`` axis), ``hermitian_text`` does
so for a grid that is Hermitian off its diagonal from the blocks on and
above it, and the JSON and CSV writers take such a table as well as
numbers.  A writer joins the leaves
in one ``str.join``, interleaved with separators that depend only on the
shape: where ``r`` axes roll over, JSON closes ``r`` lists, writes ``","``
and reopens them; CSV writes ``","`` in a row and a newline after it.  The
CSV spells non-finite leaves ``float.__repr__``'s way (``nan``, ``inf``),
the JSON as ``NaN`` and ``Infinity``.
"""

from __future__ import annotations

import json

import numpy as np

from .colligation import ColligationFamily, ColligationStep
from .errors import InvalidParameterError, _check_tol
from .hereditary import OutputPair, gramian_table
from .weights import (
    WeightSequence,
    make_weight_beta_alpha,
    make_weight_custom,
    make_weight_hardy,
)


def _json_default(o):
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, complex):
        return [o.real, o.imag]
    raise TypeError(f"not JSON-serializable: {type(o)}")


_escape = json.encoder.encode_basestring_ascii
_JSON_TOKEN = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    t = float.__repr__(x)
    return _JSON_TOKEN.get(t, t)


def _key_text(k) -> str:
    """A dict key as the stdlib encoder writes it, always as a string."""
    if isinstance(k, (int, float)) or k is None:
        k = _write(k, 0)
    elif not isinstance(k, str):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(k).__name__}")
    return _escape(k)


def _re_im(a) -> np.ndarray:
    """``a`` as floats, with a trailing ``[re, im]`` axis when complex."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    return np.asarray(a, dtype=float)


def text_array(a) -> np.ndarray:
    """``float.__repr__`` of every entry of ``a`` (with a trailing
    ``[re, im]`` axis when complex) as an object array of the same shape:
    the text both the JSON and the CSV writers take as leaves."""
    a = _re_im(a)
    return np.fromiter(map(float.__repr__, a.reshape(-1).tolist()),
                       dtype=object, count=a.size).reshape(a.shape)


def hermitian_text(K) -> np.ndarray:
    """``text_array`` of a complex grid ``K`` of shape ``(m, m, p, p)``
    whose blocks below the diagonal are, bit for bit, the conjugate
    transposes of their mirrors (a kernel grid with ``zeta is z``).

    Only the blocks ``i <= j`` are formatted; each block below takes its
    mirror's transposed text, real parts unchanged and imaginary parts
    negated by their sign character, which is the text of the negated
    float (``nan`` is its own negation)."""
    i, j = np.triu_indices(len(K))
    out = np.empty(K.shape + (2,), dtype=object)
    out[i, j] = upper = text_array(K[i, j])
    off = i < j
    mirror = upper[off].swapaxes(1, 2)
    im = mirror[..., 1]
    mirror[..., 1] = np.array(
        [t[1:] if t[0] == "-" else t if t == "nan" else "-" + t
         for t in im.reshape(-1).tolist()], dtype=object).reshape(im.shape)
    out[j[off], i[off]] = mirror
    return out


def _interleave(items: list, shape, seps) -> str:
    """The leaves ``items`` of an array of ``shape`` (row-major) joined
    with ``seps[r]`` after each leaf where its ``r`` innermost axes roll
    over (``r = len(shape)`` after the last leaf)."""
    between = []
    for r, n in enumerate(reversed(shape)):
        between = (between + [seps[r]]) * (n - 1) + between
    parts = [None] * (2 * len(items))
    parts[::2] = items
    parts[1::2] = between + [seps[len(shape)]]
    return "".join(parts)


def _array_text(a: np.ndarray, level: int) -> str:
    """Nested float lists of ``a`` (a trailing ``[re, im]`` axis when
    complex; an object array is text from ``text_array``), the outermost
    list at indent ``level``.  The separator after a leaf closes the ``r``
    axes that roll over there, then writes ``","`` and reopens them."""
    if a.size == 0:
        return _write(a.tolist(), level)
    t = a if a.dtype == object else text_array(a)
    d = t.ndim
    opens = ["[\n" + " " * (level + i + 1) for i in range(d)]
    closes = ["\n" + " " * (level + i) + "]" for i in range(d)]
    seps = ["".join(closes[d - r:][::-1]) + ",\n" + " " * (level + d - r)
            + "".join(opens[d - r:]) for r in range(d)]
    text = "".join(opens) + _interleave(t.reshape(-1).tolist(), t.shape,
                                        seps + ["".join(closes[::-1])])
    # non-finite reprs (nan, inf, -inf) are the only leaves with an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _write(o, level: int) -> str:
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, np.ndarray):
        return _array_text(o, level)
    inner = "\n" + " " * (level + 1)
    tail = "\n" + " " * level
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [_write(v, level + 1) for v in o]) + tail + "]")
    if isinstance(o, dict):
        if not o:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_key_text(k) + ": " + _write(v, level + 1)
             for k, v in sorted(o.items())]) + tail + "}")
    return _write(_json_default(o), level)


def dumps(obj) -> str:
    """Deterministic JSON text, byte for byte the stdlib encoder's output
    with ``sort_keys=True``, ``indent=1`` and ``default=_json_default``.

    numpy arrays are accepted as leaves: a real array is written as nested
    float lists, a complex one with a trailing ``[re, im]`` axis.
    """
    return _write(obj, 0)


def _complex_from_json(obj, ndim: int, message: str) -> np.ndarray:
    """The complex array of ``ndim`` axes that ``obj`` holds as nested
    ``[re, im]`` pairs, or as bare reals; other nestings are refused with
    ``message``."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == ndim:  # bare reals accepted
        return arr.astype(complex)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise InvalidParameterError(message)
    return arr[..., 0] + 1j * arr[..., 1]


def complex_matrix_to_json(M) -> list:
    return _re_im(np.atleast_2d(np.asarray(M, dtype=complex))).tolist()


def complex_matrix_from_json(obj) -> np.ndarray:
    return _complex_from_json(obj, 2,
                              "matrix JSON must be rows of [re, im] pairs")


def complex_vector_to_json(v) -> list:
    return _re_im(np.asarray(v, dtype=complex).reshape(-1)).tolist()


def complex_vector_from_json(obj) -> np.ndarray:
    return _complex_from_json(obj, 1, "vector JSON must be [re, im] pairs")


def weight_to_json(w: WeightSequence) -> dict:
    if w.kind == "beta_alpha":
        return {"kind": "beta_alpha", "alpha": w.alpha, "n": w.trunc_len}
    if w.kind == "hardy":
        return {"kind": "hardy", "n": w.trunc_len}
    return {"kind": "custom", "betas": [float(b) for b in w.betas]}


def weight_from_json(obj: dict) -> WeightSequence:
    kind = obj.get("kind")
    if kind == "beta_alpha":
        return make_weight_beta_alpha(float(obj["alpha"]), int(obj["n"]))
    if kind == "hardy":
        return make_weight_hardy(int(obj["n"]))
    if kind == "custom":
        return make_weight_custom(obj["betas"])
    raise InvalidParameterError(f"unknown weight kind {kind!r}")


def pair_to_json(pair: OutputPair) -> dict:
    return {"A": complex_matrix_to_json(pair.A),
            "C": complex_matrix_to_json(pair.C)}


def pair_from_json(obj: dict) -> OutputPair:
    if "A" not in obj or "C" not in obj:
        raise InvalidParameterError("operator JSON needs keys 'A' and 'C'")
    return OutputPair(A=complex_matrix_from_json(obj["A"]),
                      C=complex_matrix_from_json(obj["C"]))


def family_to_json(fam: ColligationFamily) -> dict:
    steps = []
    for k, st in enumerate(fam.steps):
        steps.append({
            "k": k,
            "u": st.u,
            "B": complex_matrix_to_json(st.B) if st.u else [],
            "D": complex_matrix_to_json(st.D) if st.u else [],
            "isometry_residual": fam.isometry_residuals[k]
            if k < len(fam.isometry_residuals) else None,
            "coisometry_residual": fam.coisometry_residuals[k]
            if k < len(fam.coisometry_residuals) else None,
        })
    return {
        "weight": weight_to_json(fam.weight),
        "pair": pair_to_json(fam.pair),
        "steps": steps,
    }


def family_from_json(obj: dict, tol: float = 1e-12) -> ColligationFamily:
    """The family of ``family_to_json``, its gramian table recomputed with
    ``tol`` (finite, ``>= 0``; 0 as for ``gramian``)."""
    _check_tol(tol)
    w = weight_from_json(obj["weight"])
    pair = pair_from_json(obj["pair"])
    steps = []
    for item in sorted(obj["steps"], key=lambda s: s["k"]):
        u = int(item["u"])
        if u:
            B = complex_matrix_from_json(item["B"])
            D = complex_matrix_from_json(item["D"])
        else:
            B = np.zeros((pair.n, 0), dtype=complex)
            D = np.zeros((pair.p, 0), dtype=complex)
        steps.append(ColligationStep(B=B, D=D, u=u))
    gramians = gramian_table(w, pair, len(steps), tol=tol)
    fam = ColligationFamily(weight=w, pair=pair, steps=steps,
                            gramians=gramians)
    for item in sorted(obj["steps"], key=lambda s: s["k"]):
        fam.isometry_residuals.append(item.get("isometry_residual"))
        fam.coisometry_residuals.append(item.get("coisometry_residual"))
    return fam


def char_family_to_json(char) -> dict:
    return {
        "T": complex_matrix_to_json(char.T),
        "defect": complex_matrix_to_json(char.defect),
        "weight": weight_to_json(char.weight),
        "family": family_to_json(char.family),
        "gramian_identity_residual": char.gramian_identity_residual,
        "classification": classification_to_json(char.classification),
    }


def classification_to_json(report) -> dict:
    """The classification block of a report: flags, residuals, the
    positivity depth checked and whether the verdict holds for every
    shift."""
    return {
        "flags": report.flags,
        "residuals": report.residuals,
        "k_checked": report.k_checked,
        "certified_all_k": report.certified_all_k,
    }


def inputs_from_json(obj) -> list:
    """Ragged input sequence: list of per-step vectors of [re, im] pairs."""
    return [complex_vector_from_json(u) for u in obj]


def inputs_to_json(inputs) -> list:
    return [complex_vector_to_json(u) for u in inputs]


def _csv_text(header: list, *blocks) -> str:
    """The header line, then one row per leading index of the blocks side
    by side: every number as ``re, im`` in ``float.__repr__`` form, an
    object array as the text it holds."""
    table = np.concatenate(
        [(b if getattr(b, "dtype", None) == object
          else text_array(np.asarray(b, dtype=complex))).reshape(len(b), -1)
         for b in blocks], axis=1)
    return ",".join(header) + "\n" + _interleave(
        table.reshape(-1).tolist(), table.shape, (",", "\n", "\n"))


def kernel_grid_csv(points, values) -> str:
    """CSV rows ``z_re, z_im, zeta_re, zeta_im, K_00_re, K_00_im, ...``.

    ``points`` holds the ``(z, zeta)`` pairs (shape ``(N, 2)``) and
    ``values`` the matching p-by-p kernel matrices (shape ``(N, p, p)``),
    flattened row-major.  Either may also be its ``text_array``.
    """
    if len(points) == 0:
        return ""
    p = np.shape(values)[2]
    header = ["z_re", "z_im", "zeta_re", "zeta_im"]
    for i in range(p):
        for j in range(p):
            header += [f"K_{i}{j}_re", f"K_{i}{j}_im"]
    return _csv_text(header, points, values)


def trajectory_csv(traj) -> str:
    """CSV rows ``step, x_0_re, x_0_im, ..., y_0_re, y_0_im, ...``."""
    n = len(traj.states[0])
    m = len(traj.outputs)
    p = len(traj.outputs[0]) if m else 0
    header = ["step"]
    header += [f"x_{i}_{part}" for i in range(n) for part in ("re", "im")]
    header += [f"y_{i}_{part}" for i in range(p) for part in ("re", "im")]
    if not m:
        return ",".join(header) + "\n"
    steps = np.array([str(j) for j in range(m)], dtype=object)
    return _csv_text(header, steps, traj.states[:m], traj.outputs)
