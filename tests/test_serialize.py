import json

import numpy as np
import pytest

import hardybeta as hb
from conftest import cmat, stable_pair
from hardybeta import serialize as ser


class TestComplexEncoding:
    def test_matrix_roundtrip_exact(self):
        rng = np.random.default_rng(82)
        M = cmat(rng, 3, 4)
        back = ser.complex_matrix_from_json(
            json.loads(json.dumps(ser.complex_matrix_to_json(M))))
        np.testing.assert_array_equal(M, back)

    def test_real_matrix_accepted(self):
        back = ser.complex_matrix_from_json([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(back, [[1, 2], [3, 4]])

    def test_vector_roundtrip(self):
        rng = np.random.default_rng(83)
        v = cmat(rng, 5, 1).ravel()
        back = ser.complex_vector_from_json(ser.complex_vector_to_json(v))
        np.testing.assert_array_equal(v, back)

    def test_malformed_rejected(self):
        with pytest.raises(hb.InvalidParameterError):
            ser.complex_matrix_from_json([[[1.0, 2.0, 3.0]]])


class TestWeightJson:
    def test_beta_alpha(self):
        w = hb.make_weight_beta_alpha(2.5, 32)
        blob = ser.weight_to_json(w)
        assert blob == {"kind": "beta_alpha", "alpha": 2.5, "n": 32}
        w2 = ser.weight_from_json(blob)
        np.testing.assert_array_equal(w.betas, w2.betas)

    def test_hardy(self):
        w = hb.make_weight_hardy(16)
        w2 = ser.weight_from_json(ser.weight_to_json(w))
        assert w2.kind == "hardy"
        assert w2.trunc_len == 16

    def test_custom(self):
        w = hb.make_weight_custom([1.0, 0.5, 0.25])
        blob = ser.weight_to_json(w)
        assert blob["kind"] == "custom"
        w2 = ser.weight_from_json(blob)
        np.testing.assert_array_equal(w.betas, w2.betas)

    def test_single_weight_stays_custom(self):
        w = hb.make_weight_custom([1.0])
        blob = ser.weight_to_json(w)
        assert blob["kind"] == "custom"
        assert ser.weight_from_json(blob).trunc_len == 0

    def test_unknown_kind(self):
        with pytest.raises(hb.InvalidParameterError):
            ser.weight_from_json({"kind": "fancy"})


class TestOperatorJson:
    def test_pair_roundtrip(self):
        rng = np.random.default_rng(84)
        pair = stable_pair(rng, 3, 2)
        back = ser.pair_from_json(
            json.loads(json.dumps(ser.pair_to_json(pair))))
        np.testing.assert_array_equal(pair.A, back.A)
        np.testing.assert_array_equal(pair.C, back.C)

    def test_missing_key(self):
        with pytest.raises(hb.InvalidParameterError):
            ser.pair_from_json({"A": [[1.0]]})


class TestDeterminism:
    def test_dumps_sorted_and_stable(self):
        a = ser.dumps({"b": 1.0 / 3.0, "a": [1e-17, 2.5]})
        b = ser.dumps({"a": [1e-17, 2.5], "b": 1.0 / 3.0})
        assert a == b
        assert json.loads(a)["b"] == 1.0 / 3.0


def _as_lists(obj):
    """``obj`` with every array replaced by nested lists, complex entries
    split into ``[re, im]``: the input the stdlib encoder understands."""
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


_RNG = np.random.default_rng(80)
DUMPS_CORPUS = {
    "empty": [{}, [], (), {"a": {}, "b": [[], {}]}],
    "nested": {"z": {"y": [1, (2.5, (3,)), {"x": None}]}, "a": ()},
    "int_keys": {10: "ten", 2: "two", -1: "minus one"},
    "other_keys": [{True: 1, False: 0}, {None: "null"}, {2.5: "x", -0.0: "y"}],
    "literals": [None, True, False, 0, -7, 2 ** 70],
    "numpy_scalars": {"f64": np.float64(0.1), "f32": np.float32(0.1),
                      "i64": np.int64(-3), "b": np.bool_(True),
                      "c": complex(0.5, -0.25)},
    "floats": [-0.0, 5e-324, 1e-17, 1.0 / 3.0, 1e300, float("nan"),
               float("inf"), float("-inf")],
    "strings": {"\u00e9t\u00e9": "\u2603 \"q\" \\ \n\t\x01", "": ""},
    "arrays_0d": [np.array(0.25), np.array(1.0 - 2.0j)],
    "arrays_1d": {"re": np.linspace(-1.0, 1.0, 7),
                  "c": np.array([1j, -0.0 + 0j, 3.5])},
    "arrays_4d": {"re": _RNG.normal(size=(2, 3, 2, 2)),
                  "c": _RNG.normal(size=(3, 1, 2, 2))
                  + 1j * _RNG.normal(size=(3, 1, 2, 2))},
    "arrays_empty": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)),
                     np.zeros((2, 0), dtype=complex)],
    "arrays_nonfinite": {"v": [np.array([np.nan, np.inf, -np.inf, -0.0]),
                               np.array([complex(np.nan, np.inf)])]},
    "array_float32": np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
}


class TestDumpsReference:
    """``dumps`` is byte for byte the stdlib encoder at indent 1."""

    @pytest.mark.parametrize("name", sorted(DUMPS_CORPUS))
    def test_matches_stdlib(self, name):
        obj = DUMPS_CORPUS[name]
        ref = json.dumps(_as_lists(obj), sort_keys=True, indent=1,
                         default=ser._json_default)
        assert ser.dumps(obj) == ref

    def test_whole_corpus_nested(self):
        ref = json.dumps(_as_lists(DUMPS_CORPUS), sort_keys=True, indent=1,
                         default=ser._json_default)
        assert ser.dumps(DUMPS_CORPUS) == ref

    def test_unserializable_refused(self):
        with pytest.raises(TypeError):
            ser.dumps({"a": object()})
        with pytest.raises(TypeError):
            ser.dumps({(1, 2): 0.0})


class TestCsv:
    def test_kernel_grid_csv_shape(self, w_beta2):
        rng = np.random.default_rng(85)
        pair = stable_pair(rng, 2, 2, rho=0.6)
        pts = [(0.2 + 0.1j, 0.3j), (0.0j, 0.0j)]
        vals = [hb.kernel_coinvariant(w_beta2, pair, z, zt)
                for z, zt in pts]
        text = ser.kernel_grid_csv(pts, vals)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:4] == ["z_re", "z_im", "zeta_re", "zeta_im"]
        assert len(header) == 4 + 2 * 4
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.2

    def test_trajectory_csv(self, w_beta2):
        rng = np.random.default_rng(86)
        pair = stable_pair(rng, 2, 1, rho=0.5)
        fam = hb.build_family(w_beta2, pair, k_max=3, tol=1e-13)
        us = [cmat(rng, fam.step(k).u, 1).ravel() for k in range(3)]
        traj = hb.simulate(w_beta2, fam, np.zeros(2), us)
        text = ser.trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0].startswith("step,x_0_re,x_0_im")
        assert len(lines) == 4

    def test_inputs_roundtrip(self):
        rng = np.random.default_rng(87)
        us = [cmat(rng, 2, 1).ravel(), cmat(rng, 3, 1).ravel()]
        back = ser.inputs_from_json(
            json.loads(json.dumps(ser.inputs_to_json(us))))
        for a, b in zip(us, back):
            np.testing.assert_array_equal(a, b)
