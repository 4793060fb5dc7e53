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
from hardybeta.hereditary import hermitian_inverse

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

    def test_one_entry_weight_report(self, capsys):
        code, out, _ = run(capsys, "weights", "--betas", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "custom"
        assert payload["wiener"] == {"partial_sum": 1.0, "tail_estimate": 1.0,
                                     "verdict": "summable",
                                     "rule": "polynomial 1/R"}

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

    def test_alpha_with_trunc(self, capsys):
        code, out, _ = run(capsys, "weights", "--alpha", "2.5", "-n", "16")
        assert code == 0
        payload = json.loads(out)
        assert (payload["kind"], payload["alpha"]) == ("beta_alpha", 2.5)
        assert len(payload["betas"]) == 17

    def test_betas_with_trunc_exits_2(self, capsys):
        # the explicit table sets its own length: -n was accepted and
        # ignored, and the report claimed it
        code, out, err = run(capsys, "weights", "--betas", "1,0.5,0.3,0.2",
                             "-n", "64")
        assert (code, out) == (2, "")
        assert "--betas" in err and "-n/--trunc" in err

    def test_custom_weight_reports_its_own_length(self, capsys):
        code, out, _ = run(capsys, "weights", "--betas", "1,0.5,0.3,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["trunc"] == 3 == len(payload["betas"]) - 1

    def test_unparsable_betas_exits_2(self, capsys):
        code, _, err = run(capsys, "weights", "--betas", "1,x")
        assert code == 2
        assert err.startswith("input error:")

    @pytest.mark.parametrize("argv,msg", [
        (["--betas", "1,nan"], "betas must be finite"),
        (["--betas", "1,0.5,inf"], "betas must be finite"),
        (["--alpha", "inf"], "alpha must be finite, > 1, got inf"),
        (["--alpha", "nan"], "alpha must be finite, > 1, got nan"),
    ], ids=["betas-nan", "betas-inf", "alpha-inf", "alpha-nan"])
    def test_non_finite_parameter_exits_2(self, capsys, argv, msg):
        # 1,nan was reported "summable" with exit 0, and --alpha inf raised
        # an OverflowError traceback (exit 1)
        code, out, err = run(capsys, "weights", *argv)
        assert (code, out) == (2, "")
        assert msg in err

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
        code, out, _ = run(capsys, "analyze", op, "--hardy",
                           "--k-max", "40")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["flags"].values())

    @pytest.mark.parametrize("k_max", ["1", "7"])
    def test_k_checked_is_k_max(self, tmp_path, capsys, k_max):
        # the report's depth is the --k-max asked for, on a closed form and
        # the spectral route
        op = self.write_operator(tmp_path, [[0.5]], [[np.sqrt(0.75)]])
        for weight in (["--hardy"], ["--alpha", "2.5"]):
            code, out, _ = run(capsys, "analyze", op, *weight,
                               "--k-max", k_max)
            assert code == 0
            assert json.loads(out)["k_checked"] == int(k_max)

    def test_radius_one_exits_3(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, np.eye(2), np.ones((1, 2)))
        code, _, err = run(capsys, "analyze", op)
        assert code == 3

    def test_zero_output_not_observable(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, 0.4 * np.eye(2), np.zeros((1, 2)))
        code, out, _ = run(capsys, "analyze", op, "--alpha", "2")
        assert code == 0
        assert not json.loads(out)["flags"]["exactly_observable"]

    def test_custom_zero_output_answered(self, tmp_path, capsys):
        # the custom gramian of C = 0 is the zero sum: it exited 2 with
        # "cannot reshape array of size 0 into shape (0,newaxis)"
        op = self.write_operator(tmp_path, [[0.6]], [[0.0]])
        code, out, _ = run(capsys, "analyze", op, "--betas", "1,0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["strongly_stable_beta"]
        assert not payload["flags"]["exactly_observable"]
        assert payload["residuals"]["strong_stability_rate"] == \
            pytest.approx(0.72)

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

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_bad_tol_flag_exits_2(self, tmp_path, capsys, bad):
        # refused by name before any work: a negative tol once turned
        # every verdict of this contraction around
        op = self.write_operator(tmp_path, [[0.5]], [[0.866]])
        code, out, err = run(capsys, "analyze", op, "--tol", bad)
        assert (code, out) == (2, "")
        assert err == f"error: --tol must be a finite number >= 0, " \
            f"got {float(bad)}\n"

    def test_tol_variable_not_read(self, tmp_path, capsys, monkeypatch):
        # --tol has one spelling: HARDY_BETA_TOL was a second one, read and
        # refused on every subcommand, those without a tolerance too
        op = self.write_operator(tmp_path, [[0.5]], [[0.866]])
        monkeypatch.setenv("HARDY_BETA_TOL", "nan")
        for flags, tol in (([], 1e-8), (["--tol", "1e-7"], 1e-7)):
            code, out, _ = run(capsys, "analyze", op, *flags)
            assert code == 0
            assert json.loads(out)["config"]["tol"] == tol

    def test_k_max_zero_exits_2(self, tmp_path, capsys):
        op = self.write_operator(tmp_path, [[0.5]], [[0.866]])
        code, out, err = run(capsys, "analyze", op, "--k-max", "0")
        assert (code, out) == (2, "")
        assert err == "error: classify needs k_max >= 1, got k_max=0\n"

    @pytest.mark.parametrize("sub", ["colligate", "charfn"])
    def test_negative_k_max_exits_2(self, tmp_path, capsys, sub):
        op = self.write_operator(tmp_path, [[0.5]], [[0.866]])
        where = [op] if sub == "colligate" else ["--t", "0.5"]
        code, out, err = run(capsys, sub, *where, "--k-max", "-1")
        name = "build_family" if sub == "colligate" \
            else "characteristic_family"
        assert (code, out) == (2, "")
        assert err == f"error: {name} needs k_max >= 0, got k_max=-1\n"


class TestCharfnCommand:
    def test_scalar_blaschke_bundle(self, tmp_path, capsys):
        out_file = tmp_path / "char.json"
        code, _, _ = run(capsys, "charfn", "--t", "0.5", "--hardy",
                         "--k-max", "3", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        step0 = payload["family"]["steps"][0]
        B = ser.complex_matrix_from_json(step0["B"])
        D = ser.complex_matrix_from_json(step0["D"])
        assert B[0, 0].real == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert D[0, 0].real == pytest.approx(-0.5, abs=1e-10)
        assert payload["gramian_identity_residual"] < 1e-10

    def test_operator_file_matches_scalar_flag(self, tmp_path, capsys):
        # a {"T": ...} file and a bare matrix file give the --t report
        T = ser.complex_matrix_to_json(np.array([[0.5]]))
        keyed, bare = tmp_path / "keyed.json", tmp_path / "bare.json"
        keyed.write_text(json.dumps({"T": T}))
        bare.write_text(json.dumps(T))
        outs = []
        for source in (["--t", "0.5"], ["--operator", str(keyed)],
                       ["--operator", str(bare)]):
            code, out, _ = run(capsys, "charfn", *source, "--hardy",
                               "--k-max", "3")
            assert code == 0
            outs.append(out)
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_scalar_and_operator_exit_2(self, tmp_path, capsys):
        # --operator was dropped silently when --t was given too
        op = tmp_path / "op.json"
        op.write_text(json.dumps(ser.complex_matrix_to_json(np.eye(2) / 2)))
        with pytest.raises(SystemExit) as exc:
            main(["charfn", "--t", "0.5", "--operator", str(op)])
        assert exc.value.code == 2
        assert "--operator: not allowed with argument --t" \
            in capsys.readouterr().err

    def test_no_operator_exits_2(self, capsys):
        code, _, err = run(capsys, "charfn", "--hardy")
        assert code == 2
        assert "--t or --operator" in err

    def test_expansion_exits_4(self, capsys):
        code, _, err = run(capsys, "charfn", "--t", "1.5", "--hardy")
        assert code == 4
        assert "adjoint is not a contraction" in err


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

        x0 = np.array([1.0 - 2.0j, 0.5j])
        x0_file = tmp_path / "x0.json"
        x0_file.write_text(json.dumps(ser.complex_vector_to_json(x0)))
        code, _, _ = run(capsys, "simulate", str(fam_file), "--inputs",
                         str(inputs), "--x0", str(x0_file), "--out",
                         str(traj_file))
        assert code == 0
        row = traj_file.read_text().split("\n")[1].split(",")
        assert row[:5] == ["0", "1.0", "-2.0", "0.0", "0.5"]


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

    def test_default_grid(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"A": ser.complex_matrix_to_json(
            0.5 * np.eye(2)), "C": ser.complex_matrix_to_json(np.eye(2))}))
        csv_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "kernels", str(op), "--alpha", "2",
                         "--out-csv", str(csv_file))
        assert code == 0
        points = len(ker.default_grid())
        rows = csv_file.read_text().strip().split("\n")
        assert len(rows) == 1 + points * points

    @pytest.mark.parametrize("kind", ["shifted", "gap"])
    def test_rank_tol_reaches_shifted_and_gap(self, tmp_path, capsys, kind):
        # these kinds invert G^(k) (and G^(k+1)) alone; --rank-tol is
        # applied there, and a ratio no gramian meets refuses the grid
        rng = np.random.default_rng(92)
        A = cmat(rng, 2, 2)
        A *= 0.5 / hb.spectral_radius(A)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"A": ser.complex_matrix_to_json(A),
                                  "C": ser.complex_matrix_to_json(
                                      cmat(rng, 1, 2))}))
        csv_file = tmp_path / "grid.csv"
        argv = ["kernels", str(op), "--alpha", "2", "--kind", kind, "--k",
                "1", "--grid", "0.0,0.4", "--out-csv", str(csv_file)]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--rank-tol", "0.999")
        assert code == hb.ObservabilityError.exit_code
        assert ("at G^(1)" if kind == "gap" else "singular") in err

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

    @pytest.mark.parametrize("kind", ["coinvariant", "invariant", "shifted",
                                      "gap"])
    def test_negative_k_exits_2(self, tmp_path, capsys, kind):
        # gap named a k_max never passed, and coinvariant exited 0
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"A": ser.complex_matrix_to_json(
            0.5 * np.eye(2)), "C": ser.complex_matrix_to_json(np.eye(2))}))
        csv_file = tmp_path / "grid.csv"
        assert run(capsys, "kernels", str(op), "--kind", kind, "--k", "-3",
                   "--out-csv", str(csv_file)) \
            == (2, "", "error: kernels needs --k >= 0, got --k=-3\n")
        assert not csv_file.exists()

    @pytest.mark.parametrize("kind,k_maxes", [
        ("coinvariant", [0]), ("invariant", [0]), ("shifted", [3]),
        ("gap", [3])])
    def test_gramians_of_the_kind_alone(self, tmp_path, capsys, monkeypatch,
                                        kind, k_maxes):
        # coinvariant and invariant read G^(0) alone: they built
        # G^(0..k+1) and echoed the k they do not read
        from hardybeta import cli
        calls, original = [], cli.gramian_table

        def recorded(w, pair, k_max, **kwargs):
            calls.append(k_max)
            return original(w, pair, k_max, **kwargs)

        monkeypatch.setattr(cli, "gramian_table", recorded)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"A": ser.complex_matrix_to_json(
            0.5 * np.eye(2)), "C": ser.complex_matrix_to_json(np.eye(2))}))
        js = tmp_path / "grid.json"
        assert run(capsys, "kernels", str(op), "--alpha", "2", "--kind",
                   kind, "--k", "2", "--grid", "0.0,0.5", "--out-csv",
                   str(tmp_path / "grid.csv"), "--out-json", str(js))[0] == 0
        assert calls == k_maxes
        assert json.loads(js.read_text()).get("k") \
            == (None if k_maxes == [0] else 2)

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
        ("verify", "--trunc", "768"),
        # a second spelling of --hardy and --alpha, not an abbreviation
        # of --betas
        ("weights", "--beta", "1"),
    ] + [
        # the table length is read by the weights report alone
        (command, flag, "64") for command in (
            "analyze op.json", "colligate op.json", "charfn --t 0.5",
            "kernels op.json --out-csv g.csv")
        for flag in ("-n", "--trunc")
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


class TestReportConfig:
    """A report's ``config`` holds the subcommand's own settings, at the
    values it ran at, and ``trunc``, the table length of the weight it
    built: no key from a flag the subcommand does not have."""

    SETTINGS = {"tol", "rank_tol", "k_max", "seed", "trials"}

    @pytest.mark.parametrize("argv,own", [
        (["weights", "--alpha", "2"], set()),
        (["analyze", "{op}", "--alpha", "2"], {"tol", "k_max"}),
        (["colligate", "{op}", "--alpha", "2", "--k-max", "3"],
         {"rank_tol", "k_max"}),
        (["charfn", "--t", "0.5", "--alpha", "2", "--k-max", "3"],
         {"rank_tol", "k_max"}),
        (["kernels", "{op}", "--alpha", "2", "--grid", "0.0,0.5",
          "--out-csv", "{csv}"], {"rank_tol"}),
        (["verify", "--seed", "3", "--trials", "1"],
         {"rank_tol", "seed", "trials"}),
    ], ids=["weights", "analyze", "colligate", "charfn", "kernels", "verify"])
    def test_config_is_the_subcommand_settings(self, tmp_path, capsys,
                                               monkeypatch, argv, own):
        # every report echoed tol, k_max, rank_tol, seed and trials, with a
        # default for each flag it lacks: a colligate report said tol 1e-8,
        # though build_family takes none
        import hardybeta.acceptance as acc
        monkeypatch.setattr(acc, "CRITERIA", [acc.criterion_6_scalar_golden])
        op, report = tmp_path / "op.json", tmp_path / "report.json"
        op.write_text(json.dumps({"A": [[[0.5, 0.0]]],
                                  "C": [[[0.866, 0.0]]]}))
        argv = [a.format(op=op, csv=tmp_path / "grid.csv") for a in argv]
        argv += ["--out-json" if argv[0] == "kernels" else "--out",
                 str(report)]
        parsed = vars(build_parser().parse_args(argv))
        assert self.SETTINGS & set(parsed) == own
        assert run(capsys, *argv)[0] == 0
        expected = {key: parsed[key] for key in own}
        if argv[0] != "verify":  # the suite's table is no setting
            expected["trunc"] = 256
        assert json.loads(report.read_text())["config"] == expected


class TestEnvAndDeterminism:
    def test_subcommand_looked_up_on_every_call(self, capsys, monkeypatch):
        from hardybeta import cli
        run(capsys, "weights", "--alpha", "2", "-n", "4")
        calls, original = [], cli.cmd_weights

        def counting(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_weights", counting)
        code, out, _ = run(capsys, "weights", "--alpha", "2", "-n", "4")
        assert (code, calls) == (0, ["weights"])
        assert json.loads(out)["kind"] == "beta_alpha"

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(np.array([[0.5]])),
            "C": ser.complex_matrix_to_json(np.array([[1.0]]))}))
        js = tmp_path / "a.json"
        argv = ["kernels", str(op), "--grid", "0.0,0.5"]
        assert run(capsys, *argv, "--out-csv", str(tmp_path / "a.csv"),
                   "--out-json", str(js))[0] == 0
        js.unlink()
        assert run(capsys, *argv, "--out-csv", str(tmp_path / "b.csv"))[0] \
            == 0
        assert sorted(f.name for f in tmp_path.iterdir()) \
            == ["a.csv", "b.csv", "op.json"]

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

    @pytest.mark.parametrize("k", ["0", "2"])
    @pytest.mark.parametrize("kind", ["coinvariant", "invariant", "shifted",
                                      "gap"])
    def test_kernels_files_match_naive_writers(self, tmp_path, capsys, kind,
                                               k):
        # the JSON is the stdlib's text of its content, and the CSV is the
        # naive row-by-row text of the JSON's floats
        rng = np.random.default_rng(93)
        A = cmat(rng, 3, 3)
        A *= 0.6 / hb.spectral_radius(A)
        op = tmp_path / "op.json"
        op.write_text(json.dumps({
            "A": ser.complex_matrix_to_json(A),
            "C": ser.complex_matrix_to_json(cmat(rng, 2, 3))}))
        csv, kern = tmp_path / "grid.csv", tmp_path / "grid.json"
        assert run(capsys, "kernels", str(op), "--alpha", "2", "--kind",
                   kind, "--k", k, "--grid", "0.0,0.5", "--out-csv",
                   str(csv), "--out-json", str(kern))[0] == 0
        text = kern.read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True, indent=1) + "\n"
        header = csv.read_text().split("\n", 1)[0]
        rows = [",".join(map(float.__repr__, np.ravel(z).tolist()
                                + np.ravel(v).tolist()))
                for z, v in zip(obj["points"], obj["values"])]
        assert len(rows) == 9 * 9
        assert csv.read_text() == "\n".join([header] + rows) + "\n"


    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("kind", ["coinvariant", "invariant", "shifted",
                                      "gap"])
    @pytest.mark.parametrize("weight", [["--hardy"], ["--alpha", "2"],
                                        ["--alpha", "2.5"]])
    def test_kernels_leaves_are_the_library_grid_text(self, tmp_path, capsys,
                                                      kind, k, weight):
        # only the blocks on and above the diagonal are formatted; every
        # leaf is still float.__repr__ of the library's grid, signed zeros
        # (the point 0 at k = 2) included
        rng = np.random.default_rng(98)
        A = cmat(rng, 3, 3)
        A *= 0.6 / hb.spectral_radius(A)
        pair = hb.OutputPair(A=A, C=cmat(rng, 2, 3))
        op = tmp_path / "op.json"
        op.write_text(json.dumps(ser.pair_to_json(pair)))
        csv, kern = tmp_path / "grid.csv", tmp_path / "grid.json"
        assert run(capsys, "kernels", str(op), *weight, "--kind", kind,
                   "--k", str(k), "--grid", "0.0,0.5", "--out-csv", str(csv),
                   "--out-json", str(kern))[0] == 0
        w = (hb.make_weight_hardy() if weight == ["--hardy"]
             else hb.make_weight_beta_alpha(float(weight[1])))
        pts = ker.default_grid(radii=(0.0, 0.5))
        tab = hb.gramian_table(w, pair, k + 1, tol=1e-12)
        G_inv = hermitian_inverse(tab[0])
        K = {"coinvariant": lambda: hb.kernel_coinvariant(w, pair, pts, pts,
                                                          G_inv),
             "invariant": lambda: hb.kernel_invariant(w, pair, pts, pts,
                                                      G_inv),
             "shifted": lambda: hb.kernel_shifted(w, k, pair, tab, pts, pts),
             "gap": lambda: hb.kernel_gap(w, k, pair, tab, pts, pts),
             }[kind]()
        ref = ser.text_array(K).reshape(81, -1).tolist()
        json_leaves = [list(map(float.__repr__, np.ravel(v).tolist()))
                       for v in json.loads(kern.read_text())["values"]]
        csv_leaves = [row.split(",")[4:]
                      for row in csv.read_text().split("\n")[1:-1]]
        assert json_leaves == ref
        assert csv_leaves == ref


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

    def test_raising_criterion_exits_6(self, tmp_path, capsys,
                                       monkeypatch):
        # the criterion that raises fails by name, and the next one runs
        import hardybeta.acceptance as acc

        def boom(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr(hb.hereditary, "stein_residual", boom)
        monkeypatch.setattr(acc, "CRITERIA", [acc.criterion_1_stein,
                                              acc.criterion_6_scalar_golden])
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--trials", "1",
                           "--out", str(report))
        assert code == 6
        assert "FAIL   1 stein-identity" in out
        assert "error=ValueError: boom" in out
        assert "1/2 criteria passed" in out
        crit = json.loads(report.read_text())["criteria"]
        assert [c["passed"] for c in crit] == [False, True]
        assert crit[0]["measured"] == {"error": "ValueError: boom"}


class TestShortCustomWeights:
    def test_three_entry_constant_weight(self, capsys):
        code, out, _ = run(capsys, "weights", "--betas", "1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hardy"
        assert payload["ratio_bound"] == 1.0
        assert payload["wiener"]["partial_sum"] == 2.0
