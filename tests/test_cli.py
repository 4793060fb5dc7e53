import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import hardybeta as hb
from conftest import cmat
from hardybeta import kernels as ker
from hardybeta import serialize as ser
from hardybeta.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWeightsCommand:
    def test_beta2_coefficients(self, capsys):
        code, out, _ = run(capsys, "weights", "--alpha", "2", "-n", "64",
                           "--head")
        assert code == 0
        payload = json.loads(out)
        assert payload["c"][:4] == [1.0, -2.0, 1.0, 0.0]
        assert payload["ratio_bound"] == 2.0
        assert payload["wiener"]["verdict"] == "summable"

    def test_short_table_summable(self, capsys):
        # the closed-form report needs no minimum table length
        code, out, _ = run(capsys, "weights", "--alpha", "2", "-n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["wiener"]["verdict"] == "summable"
        assert payload["wiener"]["tail_estimate"] == 0.0

    def test_constant_weight_report(self, capsys):
        code, out, _ = run(capsys, "weights", "--betas", "1,1,1,1,1,1,1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hardy"
        assert payload["ratio_bound"] == 1.0

    def test_inadmissible_exits_2(self, capsys):
        code, _, err = run(capsys, "weights", "--betas", "1,0.5,0.6")
        assert code == 2
        assert "non-increasing" in err

    def test_determinism(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "weights", "--alpha", "2.5", "-n", "32", "--out", str(f1))
        run(capsys, "weights", "--alpha", "2.5", "-n", "32", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestAnalyzeCommand:
    def write_operator(self, tmp_path, A, C):
        path = tmp_path / "op.json"
        path.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(np.atleast_2d(A)),
            "C": ser.complex_matrix_to_json(np.atleast_2d(C)),
        }))
        return str(path)

    def test_scalar_contraction(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, [[0.5]], [[np.sqrt(0.75)]])
        code, out, _ = run(capsys, "analyze", op, "--beta", "1",
                           "--k-max", "40")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["flags"].values())

    def test_radius_one_exits_3(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, np.eye(2), np.ones((1, 2)))
        code, _, err = run(capsys, "analyze", op)
        assert code == 3

    def test_zero_output_not_observable(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, 0.4 * np.eye(2), np.zeros((1, 2)))
        code, out, _ = run(capsys, "analyze", op, "--alpha", "2")
        assert code == 0
        assert not json.loads(out)["flags"]["exactly_observable"]

    def test_diverging_weight_exits_2(self, tmp_path, capsys):
        # the reciprocal series of this weight diverges, so classify refuses
        # it like the hereditary maps do (it was exit 5, "increase the
        # weight truncation")
        op = self.write_operator(tmp_path, 0.3 * np.eye(2), np.ones((1, 2)))
        betas = ",".join(["1"] + ["0.01"] * 64)
        code, _, err = run(capsys, "analyze", op, "--betas", betas)
        assert code == 2
        assert "diverge" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, _ = run(capsys, "analyze", str(bad))
        assert code == 2


class TestCharfnCommand:
    def test_scalar_blaschke_bundle(self, tmp_path, capsys):
        out_file = tmp_path / "char.json"
        code, _, _ = run(capsys, "charfn", "--t", "0.5", "--beta", "1",
                         "--k-max", "3", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        step0 = payload["family"]["steps"][0]
        B = ser.complex_matrix_from_json(step0["B"])
        D = ser.complex_matrix_from_json(step0["D"])
        assert B[0, 0].real == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert D[0, 0].real == pytest.approx(-0.5, abs=1e-10)
        assert payload["gramian_identity_residual"] < 1e-10

    def test_expansion_exits_4(self, capsys):
        code, _, _ = run(capsys, "charfn", "--t", "1.5", "--beta", "1")
        assert code in (2, 4)


class TestColligateSimulate:
    def test_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(88)
        A = cmat(rng, 2, 2)
        A *= 0.6 / hb.spectral_radius(A)
        C = cmat(rng, 2, 2)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(C)}))
        fam_file = tmp_path / "fam.json"
        code, _, _ = run(capsys, "colligate", str(op), "--alpha", "2",
                         "--k-max", "5", "--out", str(fam_file))
        assert code == 0
        fam_json = json.loads(fam_file.read_text())
        assert all(s["isometry_residual"] < 1e-9 for s in fam_json["steps"])

        inputs = tmp_path / "inputs.json"
        u_dim = fam_json["steps"][0]["u"]
        inputs.write_text(json.dumps(
            ser.inputs_to_json([np.ones(u_dim), np.zeros(u_dim)])))
        traj_file = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "simulate", str(fam_file), "--inputs",
                         str(inputs), "--out", str(traj_file))
        assert code == 0
        lines = traj_file.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("step,")


class TestKernelsCommand:
    def test_csv_hermitian_grid(self, tmp_path, capsys):
        rng = np.random.default_rng(89)
        A = cmat(rng, 2, 2)
        A *= 0.5 / hb.spectral_radius(A)
        C = cmat(rng, 1, 2)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(C)}))
        csv_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "kernels", str(op), "--alpha", "2",
                         "--grid", "0.0,0.4", "--out-csv", str(csv_file))
        assert code == 0
        rows = csv_file.read_text().strip().split("\n")[1:]
        table = {}
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            table[(vals[0], vals[1], vals[2], vals[3])] = complex(
                vals[4], vals[5])
        worst = 0.0
        for (a, b, c, d), v in table.items():
            worst = max(worst, abs(v - np.conj(table[(c, d, a, b)])))
        assert worst < 1e-10

    @pytest.mark.parametrize("grid", ["0.5,1.2", "1.0", "-0.5", "nan"])
    @pytest.mark.parametrize("kind", ["coinvariant", "gap"])
    def test_radius_outside_disk_exits_2(self, tmp_path, capsys, grid, kind):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"A": ser.complex_matrix_to_json(
            0.5 * np.eye(2)), "C": ser.complex_matrix_to_json(np.eye(2))}))
        csv_file = tmp_path / "grid.csv"
        code, _, err = run(capsys, "kernels", str(op), "--alpha", "2",
                           "--kind", kind, "--grid", grid,
                           "--out-csv", str(csv_file))
        assert code == 2
        assert "[0, 1)" in err
        assert not csv_file.exists()

    def test_gap_resolvents_once_per_shift(self, tmp_path, capsys,
                                           monkeypatch):
        rng = np.random.default_rng(91)
        A = cmat(rng, 3, 3)
        A *= 0.5 / hb.spectral_radius(A)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(cmat(rng, 2, 3))}))
        calls = []
        original = ker.resolvents

        def counted(w, k, A, zs, tol=1e-12):
            calls.append((k, len(zs)))
            return original(w, k, A, zs, tol)

        monkeypatch.setattr(ker, "resolvents", counted)
        grid = len(ker.default_grid(radii=(0.0, 0.5)))
        assert grid == 9
        for kind, most in (("gap", 2), ("coinvariant", 1)):
            calls.clear()
            code, _, _ = run(capsys, "kernels", str(op), "--alpha", "2",
                             "--kind", kind, "--k", "1", "--grid", "0.0,0.5",
                             "--out-csv", str(tmp_path / f"{kind}.csv"))
            assert code == 0
            # one call per shift, each for the whole grid
            assert 1 <= len(calls) <= most
            assert all(n == grid for _, n in calls)
            assert len(set(calls)) == len(calls)


class TestParser:
    #: flags that were accepted and then ignored; each is now refused
    REMOVED = [
        ("weights", "--tol", "1e-6"), ("weights", "--rank-tol", "1e-8"),
        ("weights", "--k-max", "4"), ("weights", "--seed", "1"),
        ("analyze op.json", "--rank-tol", "1e-8"),
        ("analyze op.json", "--seed", "1"),
        ("colligate op.json", "--tol", "1e-6"),
        ("colligate op.json", "--seed", "1"),
        ("charfn --t 0.5", "--tol", "1e-6"), ("charfn --t 0.5", "--seed", "1"),
        ("kernels op.json --out-csv g.csv", "--tol", "1e-6"),
        ("kernels op.json --out-csv g.csv", "--k-max", "4"),
        ("kernels op.json --out-csv g.csv", "--seed", "1"),
        ("kernels op.json --out-csv g.csv", "--out", "g.json"),
        ("verify", "--tol", "1e-6"), ("verify", "--k-max", "4"),
    ]

    @pytest.mark.parametrize("command,flag,value", REMOVED)
    def test_removed_flag_exits_2(self, command, flag, value, capsys):
        parser = build_parser()
        parser.parse_args(command.split())  # the command alone parses
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command.split() + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        lines = [ln.strip() for ln in README.read_text().splitlines()
                 if ln.strip().startswith("hardy-beta ")]
        assert len(lines) >= 8
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            args = parser.parse_args(argv)
            assert args.command == argv[0]


class TestEnvAndDeterminism:
    def test_tol_env_override(self, monkeypatch):
        from hardybeta.cli import _default_tol
        monkeypatch.setenv("HARDY_BETA_TOL", "1e-5")
        assert _default_tol() == 1e-5
        monkeypatch.delenv("HARDY_BETA_TOL")
        assert _default_tol() == 1e-8

    def test_kernels_repeat_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        A = cmat(rng, 2, 2)
        A *= 0.5 / hb.spectral_radius(A)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(cmat(rng, 1, 2))}))
        outs = []
        for tag in ("a", "b"):
            csv, js = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            code, _, _ = run(capsys, "kernels", str(op), "--alpha", "2",
                             "--kind", "gap", "--k", "1", "--grid", "0.0,0.5",
                             "--out-csv", str(csv), "--out-json", str(js))
            assert code == 0
            outs.append((csv.read_bytes(), js.read_bytes()))
        assert outs[0] == outs[1]
        assert "jobs" not in json.loads(outs[0][1])["config"]

    def test_json_files_stdlib_canonical(self, tmp_path, capsys):
        # floats round-trip exactly through repr, so re-encoding the parsed
        # text with the stdlib encoder must give the same bytes
        rng = np.random.default_rng(92)
        A = cmat(rng, 2, 2)
        A *= 0.5 / hb.spectral_radius(A)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(cmat(rng, 2, 2))}))
        csv = tmp_path / "grid.csv"
        commands = {
            "weights": ["weights", "--alpha", "2.5", "-n", "32"],
            "analyze": ["analyze", str(op), "--alpha", "2"],
            "colligate": ["colligate", str(op), "--hardy", "--k-max", "3"],
            "charfn": ["charfn", "--t", "0.3", "--alpha", "2",
                       "--k-max", "3"],
        }
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert run(capsys, *argv, "--out", str(out))[0] == 0
        kern = tmp_path / "kernels.json"
        assert run(capsys, "kernels", str(op), "--alpha", "2", "--kind",
                   "gap", "--k", "1", "--grid", "0.0,0.3,0.6",
                   "--out-csv", str(csv), "--out-json", str(kern))[0] == 0
        for name in [*commands, "kernels"]:
            text = (tmp_path / f"{name}.json").read_text()
            canon = json.dumps(json.loads(text), sort_keys=True, indent=1)
            assert canon + "\n" == text, name
        # the CSV rows carry the JSON's points and values bit for bit
        obj = json.loads(kern.read_text())
        rows = csv.read_text().strip().split("\n")[1:]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        points = np.array(obj["points"]).reshape(len(rows), -1)
        values = np.array(obj["values"]).reshape(len(rows), -1)
        assert table.shape == (17 * 17, 4 + 8)
        np.testing.assert_array_equal(
            table.view(np.int64), np.hstack((points, values)).view(np.int64))


class TestVerifyCommand:
    def test_reduced_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--seed", "7",
                           "--trials", "4", "--out", str(report))
        assert code == 0
        assert out.count("PASS") >= 12
        payload = json.loads(report.read_text())
        assert payload["all_passed"]
        assert len(payload["criteria"]) == 12


class TestShortCustomWeights:
    def test_three_entry_constant_weight(self, capsys):
        code, out, _ = run(capsys, "weights", "--betas", "1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hardy"
        assert payload["ratio_bound"] == 1.0
        assert payload["wiener"]["partial_sum"] == 2.0
