import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from steermap import cli, constructions, linalg, mapping, states
from steermap.mapping import INV_SQRT3
from steermap.states import make_density, random_pure, state_to_json, werner

STATE_DIR = Path(__file__).parent / "data" / "states"


@pytest.fixture
def werner_file(tmp_path):
    def _write(p):
        path = tmp_path / f"werner_{p}.json"
        path.write_text(state_to_json(werner(p)))
        return str(path)

    return _write


@pytest.fixture
def nan_file(tmp_path):
    mat = werner(0.5).mat.real.tolist()
    mat[1][2] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps({"dims": [2, 2], "re": mat, "im": np.zeros((4, 4)).tolist()})
    )
    return str(path)


class TestAnalyze:
    def test_maximally_entangled(self, werner_file, capsys):
        assert cli.main(["analyze", "--state", werner_file(1.0)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["negativity"] == pytest.approx(0.5, abs=1e-10)
        assert data["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert data["f3"] == pytest.approx(3.0, abs=1e-10)

    def test_maximally_mixed(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(state_to_json(make_density(np.eye(4, dtype=complex) / 4, 2, 2)))
        assert cli.main(["analyze", "--state", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(abs(v) <= 1e-10 for v in data.values())

    def test_qudit_qubit_product(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rho = make_density(
            linalg.kron(random_pure(3, rng), np.eye(2, dtype=complex) / 2), 3, 2
        )
        path = tmp_path / "prod.json"
        path.write_text(state_to_json(rho))
        assert cli.main(["analyze", "--state", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "chsh" not in data and "f3" in data
        assert data["negativity"] <= 1e-10

    def test_writes_file(self, werner_file, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--state", werner_file(0.5), "--out", str(out)]) == 0
        assert "negativity" in json.loads(out.read_text())

    def test_invalid_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "re": [[1.0]], "im": [[0.0]]}')
        assert cli.main(["analyze", "--state", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_re_and_im_of_other_shapes_exit_2(self, capsys):
        path = STATE_DIR / "re_im_mismatch.json"
        assert cli.main(["analyze", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: 're'/'im' must be equal-shape 2-D arrays, got (4, 4) and (2, 2)\n"
        )
        assert captured.out == ""

    def test_wrong_column_count_reads_its_gap(self, capsys):
        # Rows match the dims and columns do not: the deviation is the
        # larger of the two gaps, never 0.
        path = STATE_DIR / "wrong_columns.json"
        assert cli.main(["analyze", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invariant violated: shape (4, 5) != (4, 4) (deviation 1.000e+00)\n"
        )
        assert captured.out == ""

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["analyze", "--state", str(tmp_path / "gone.json")]) == 2

    def test_nan_state_exits_2(self, nan_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--state", nan_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "finite entries" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestMap:
    def test_werner_contraction(self, werner_file, tmp_path, capsys):
        out = tmp_path / "mapped.json"
        rc = cli.main(
            ["map", "--state", werner_file(0.9), "--mode", "M",
             "--mu", str(INV_SQRT3), "--c", "0", "--out", str(out)]
        )
        assert rc == 0
        assert "feasible" in capsys.readouterr().out
        mapped = states.load_state(out)
        assert np.max(np.abs(mapped.mat - werner(0.9 * INV_SQRT3).mat)) < 1e-12

    def test_identity_at_full_visibility(self, werner_file, tmp_path):
        # mu=1 sits outside the guaranteed region, so mapping needs
        # --force; the map itself is still the identity.
        out = tmp_path / "same.json"
        rc = cli.main(
            ["map", "--state", werner_file(0.7), "--mode", "N",
             "--mu", "1.0", "--c", "0", "--out", str(out), "--force"]
        )
        assert rc == 0
        assert np.max(np.abs(states.load_state(out).mat - werner(0.7).mat)) < 1e-13

    def test_infeasible_exits_3(self, werner_file, tmp_path, capsys):
        out = tmp_path / "never.json"
        rc = cli.main(
            ["map", "--state", werner_file(0.9), "--mode", "M",
             "--mu", "0.5", "--c", "0.5", "--out", str(out)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "0.414213562373" in err  # analytic bound at mu = 0.5
        assert not out.exists()

    def test_force_overrides(self, werner_file, tmp_path):
        out = tmp_path / "forced.json"
        rc = cli.main(
            ["map", "--state", werner_file(0.9), "--mode", "M",
             "--mu", "0.5", "--c", "0.5", "--out", str(out), "--force"]
        )
        assert rc == 0
        states.load_state(out)  # valid state regardless of feasibility

    def test_nan_state_exits_2(self, nan_file, tmp_path, capsys):
        out = tmp_path / "mapped.json"
        rc = cli.main(
            ["map", "--state", nan_file, "--mode", "M",
             "--mu", "0.5", "--c", "0", "--out", str(out)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "finite entries" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "nan.json"]

    def test_partner_below_tolerance_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The state loads (least eigenvalue -0.9e-10), but its Bob-traced
        # reduced state has -1.8e-10, which the c = 1 partner keeps: the
        # mapped state would fail `analyze`, so `map` refuses it.
        mat = np.diag([-0.9e-10, -0.9e-10, 0.5 + 0.9e-10, 0.5 + 0.9e-10])
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(
            {"dims": [2, 2], "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}
        ))
        assert cli.main(["analyze", "--state", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "mapped.json"
        argv = ["map", "--state", str(path), "--mode", "M", "--mu", "0", "--c", "1",
                "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invariant violated: partner min eigenvalue")
        assert not out.exists()
        # At c = 0.5 the partner's least eigenvalue is -1.35e-10 as well.
        assert cli.main(argv[:-4] + ["--c", "0.5", "--out", str(out)]) == 2
        # Map N traces out Alice's qubit, whose reduced state is diag(1/2, 1/2).
        argv[4] = "N"
        assert cli.main(argv) == 0
        assert cli.main(["analyze", "--state", str(out)]) == 0

    def test_bad_mode_exits_2(self, werner_file, tmp_path):
        rc = cli.main(
            ["map", "--state", werner_file(0.5), "--mode", "Q",
             "--mu", "0.5", "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2


    def test_infeasible_map_builds_no_mixture(self, werner_file, tmp_path, monkeypatch, capsys):
        calls = []
        real_mix = mapping.mix

        def counted_mix(*args):
            calls.append(args)
            return real_mix(*args)

        monkeypatch.setattr(mapping, "mix", counted_mix)
        state = werner_file(0.9)
        argv = ["map", "--state", state, "--mode", "N", "--mu", "0.5", "--c", "0.5",
                "--out", str(tmp_path / "m.json")]
        assert cli.main(argv) == 3
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "feasible(mu=0.5, c=0.5) = false\n"
        assert captured.err == (
            "infeasible: c = 0.5 exceeds c_max = 0.414213562373 at mu = 0.5 "
            "(use --force to map anyway)\n"
        )
        assert cli.main(argv + ["--force"]) == 0
        assert len(calls) == 1

    def test_mu_just_above_inv_sqrt3_is_explained_by_c(self, tmp_path, capsys):
        # This mu rounds above 1/sqrt(3) yet feasible() admits c = 0 there,
        # so the explanation is the bound on c, not that no c is admitted.
        argv = ["map", "--state", str(STATE_DIR / "werner_0.9.json"), "--mode", "M",
                "--mu", "0.5773502691897259", "--out", str(tmp_path / "m.json")]
        assert 0.5773502691897259 > INV_SQRT3
        assert cli.main(argv + ["--c", "0"]) == 0
        assert capsys.readouterr().out == "feasible(mu=0.57735026919, c=0) = true\n"
        (tmp_path / "m.json").unlink()
        assert cli.main(argv + ["--c", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "feasible(mu=0.57735026919, c=0.5) = false\n"
        assert captured.err == (
            "infeasible: c = 0.5 exceeds c_max = 0 at mu = 0.57735026919 "
            "(use --force to map anyway)\n"
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [(["--mu", "1.5"], "mu must be in [0, 1], got 1.5"),
         (["--mu", "0.5", "--c", "nan"], "c must be in [0, 1], got nan")],
    )
    def test_bad_parameters_exit_2_before_output(self, werner_file, tmp_path, capsys, extra, message):
        argv = ["map", "--state", werner_file(0.9), "--mode", "M",
                "--out", str(tmp_path / "m.json")] + extra
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestEigenCounts:
    """States are validated where they enter, not again after closed operations."""

    @pytest.fixture
    def eigen_calls(self, monkeypatch):
        calls = []
        real_eigen = linalg.hermitian_eigen

        def counted_eigen(m):
            calls.append(np.shape(m))
            return real_eigen(m)

        monkeypatch.setattr(linalg, "hermitian_eigen", counted_eigen)
        return calls

    @pytest.mark.parametrize("target, dims", [("lhs", "3x2"), ("spm", "2x3")])
    def test_verify_makes_exactly_one_per_block(self, eigen_calls, target, dims, capsys):
        # One block: the reduced states of the partners, whatever the number
        # of trials in it.  The sampled members and mixtures are built
        # closed and not decomposed.
        d_a, d_b = map(int, dims.split("x"))
        reduced = d_a if target == "lhs" else d_b
        for trials in (1, 5):
            eigen_calls.clear()
            assert cli.main(["verify", target, "--dims", dims, "--trials", str(trials)]) == 0
            assert json.loads(capsys.readouterr().out)["pass"] is True
            assert eigen_calls == [(trials, reduced, reduced)]

    def test_feasible_map_decomposes_only_the_loaded_state(self, eigen_calls, werner_file, tmp_path):
        state = werner_file(0.9)
        eigen_calls.clear()
        out = tmp_path / "m.json"
        argv = ["map", "--state", state, "--mode", "M", "--mu", "0.5", "--c", "0.3",
                "--out", str(out)]
        assert cli.main(argv) == 0
        assert eigen_calls == [(4, 4), (2, 2)]
        states.load_state(out)

    @pytest.mark.parametrize("name, count", [("mixed_2x2", 4), ("rand_4x2", 3)])
    def test_analyze_makes_one_per_detector(self, eigen_calls, capsys, name, count):
        # The loaded state's validation, then one each for negativity,
        # f3 (its three blocks in one call) and, on 2x2 only, chsh.
        assert cli.main(["analyze", "--state", str(STATE_DIR / f"{name}.json")]) == 0
        assert json.loads(capsys.readouterr().out)
        assert len(eigen_calls) == count

    def test_demo_werner_makes_four_per_block(self, eigen_calls, capsys):
        # One per stacked pass: the partners' reduced states, negativity,
        # f3 and chsh, however many grid points the block holds.  The
        # first run also validates the singlet, built once and cached.
        states.singlet.cache_clear()
        counts = []
        for grid in (2, 2, cli.WERNER_BLOCK, cli.WERNER_BLOCK + 1, 2 * cli.WERNER_BLOCK + 1):
            eigen_calls.clear()
            assert cli.main(["demo-werner", "--grid", str(grid)]) == 0
            capsys.readouterr()
            counts.append(len(eigen_calls))
        assert counts == [5, 4, 4, 8, 12]


class TestRegion:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(["region", "--grid", "50", "--tol", "1e-10", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mu,c_max_numeric,c_max_analytic,abs_err"
        assert len(lines) == 51
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[2]) == pytest.approx(0.0, abs=1e-12)
        assert max(float(row.split(",")[3]) for row in lines[1:]) <= 2e-10

    def test_stdout_default(self, capsys):
        assert cli.main(["region", "--grid", "5", "--tol", "1e-8"]) == 0
        assert capsys.readouterr().out.startswith("mu,")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_exit_2(self, tol, capsys):
        assert cli.main(["region", "--grid", "5", "--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    def test_unwritable_path_exits_2(self, tmp_path):
        target = tmp_path / "no_such_dir" / "region.csv"
        assert cli.main(["region", "--grid", "5", "--out", str(target)]) == 2

    def test_grid_too_large_to_allocate_exits_2(self, capsys):
        # 10**12 points need 7.28 TiB per array: numpy refuses the
        # allocation up front, and main must report it as an input error.
        assert cli.main(["region", "--grid", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestVerify:
    def test_lhs_passes(self, capsys):
        rc = cli.main(["verify", "lhs", "--trials", "3", "--dims", "3x2", "--seed", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["max_residual"] <= 1e-10

    def test_spm_passes(self, capsys):
        rc = cli.main(["verify", "spm", "--trials", "3", "--dims", "2x3", "--seed", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["max_residual"] <= 1e-10

    @pytest.mark.parametrize("target,dims", [("lhs", "4x2"), ("spm", "2x4")])
    def test_largest_supported_dims(self, target, dims, capsys):
        rc = cli.main(["verify", target, "--trials", "2", "--dims", dims, "--seed", "11"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_fixed_feasible_params(self, capsys):
        rc = cli.main(
            ["verify", "lhs", "--trials", "2", "--dims", "2x2",
             "--mu", "0.5", "--c", "0.4", "--seed", "3"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_infeasible_params_exit_4(self, capsys):
        rc = cli.main(
            ["verify", "lhs", "--trials", "2", "--dims", "2x2",
             "--mu", "0.5", "--c", "0.465", "--seed", "3"]
        )
        assert rc == 4
        assert "unphysical" in capsys.readouterr().err

    def test_unphysical_hidden_state_exits_4(self, monkeypatch, capsys):
        # No separable trial reaches the handler: each hidden qubit mixes
        # two states, so the builder is made to refuse one here.
        def unphysical(*args):
            raise constructions.UnphysicalHiddenStateError(0, 1.5)

        monkeypatch.setattr(constructions, "certificate", unphysical)
        assert cli.main(["verify", "lhs", "--trials", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "verification failed: hidden state unphysical at xi=0: |r|^2 = 1.5 > 1\n"
        )
        assert captured.out == ""

    def test_wrong_dims_exit_2(self):
        assert cli.main(["verify", "lhs", "--dims", "2x3", "--trials", "1"]) == 2
        assert cli.main(["verify", "spm", "--dims", "3x2", "--trials", "1"]) == 2
        assert cli.main(["verify", "lhs", "--dims", "5x2", "--trials", "1"]) == 2

    def test_mu_without_c_exit_2(self):
        assert cli.main(["verify", "lhs", "--trials", "1", "--mu", "0.5"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["spm", "--trials", "0"], ["lhs", "--dims", "3x2", "--trials", "-5"]],
    )
    def test_no_trials_exit_2(self, argv, capsys):
        # Zero trials are zero evidence: no "pass" report.
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err

    @pytest.mark.parametrize("target", ["spm", "lhs"])
    def test_negative_seed_exit_2(self, target, capsys):
        # numpy's own refusal ("expected non-negative integer") names no flag.
        assert cli.main(["verify", target, "--trials", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("target", ["spm", "lhs"])
    def test_seed_of_any_size_runs(self, target, capsys):
        seed = "1" + "0" * 40
        assert cli.main(["verify", target, "--trials", "2", "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == int(seed)

    @pytest.mark.parametrize("target", ["spm", "lhs"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-10"])
    def test_bad_tol_exit_2(self, target, tol, capsys):
        assert cli.main(["verify", target, "--trials", "1", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_exact_identity_gates_pass(self, monkeypatch, capsys):
        # An anti-Hermitian 1e-3j sigma_x on one hidden qubit leaves every
        # real Born probability, and so any sampled joint, unchanged: only
        # the exact operator identity sees it, and it is what verify reports.
        build = constructions.certificate

        def mutated(*args, **kwargs):
            cert = build(*args, **kwargs)
            alice = cert.alice.copy()
            alice[1, 2] += 1e-3j * np.array([[0, 1], [1, 0]])
            return constructions.FiniteModel(cert.weights, alice, cert.bob)

        monkeypatch.setattr(constructions, "certificate", mutated)
        rc = cli.main(["verify", "spm", "--trials", "3", "--dims", "2x3", "--seed", "5"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == 4 and report["pass"] is False
        assert 1e-4 < report["max_residual"] <= 1e-3
        assert captured.err.startswith("worst trial 1 (state seed 2006): mu=")
        residual = float(captured.err.split("residual=")[1])
        assert report["max_residual"] == float(f"{residual:.12g}")

    @pytest.mark.parametrize("target,dims", [("lhs", "3x2"), ("spm", "2x3")])
    def test_builds_no_prime_model(self, target, dims, monkeypatch, capsys):
        # verify hands the builder the partner's Pauli table: no partner
        # model is built, and none is compared with the base model.
        def refuse(*args, **kwargs):
            raise AssertionError("verify built or compared a prime model")

        for name in ("bob_biased_prime_model", "alice_biased_prime_model", "_partner_table"):
            monkeypatch.setattr(constructions, name, refuse)
        assert cli.main(["verify", target, "--trials", "9", "--dims", dims]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_zero_tol_is_accepted(self, capsys):
        rc = cli.main(["verify", "spm", "--trials", "1", "--tol", "0"])
        assert rc in (0, 4)
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0


class TestParserReuse:
    """One parser serves every main() call without carrying state over."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_not_built_at_import(self):
        code = "import steermap.cli as c; print(c.build_parser.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0"

    def test_force_does_not_leak(self, werner_file, tmp_path, capsys):
        argv = ["map", "--state", werner_file(0.9), "--mode", "M", "--mu", "0.5", "--c", "0.5"]
        assert cli.main(argv + ["--out", str(tmp_path / "forced.json"), "--force"]) == 0
        out = tmp_path / "never.json"
        assert cli.main(argv + ["--out", str(out)]) == 3
        assert not out.exists()

    def test_fixed_params_do_not_leak(self, monkeypatch, capsys):
        # Fixed --mu/--c draw nothing; a sampled run draws once per block.
        sampled = []
        sample = cli._sample_params
        monkeypatch.setattr(
            cli, "_sample_params", lambda rng, n: sampled.append(n) or sample(rng, n)
        )
        trials = str(cli.VERIFY_BLOCK + 1)
        argv = ["verify", "lhs", "--trials", trials, "--dims", "2x2", "--seed", "3"]
        assert cli.main(argv + ["--mu", "0.5", "--c", "0.4"]) == 0
        assert sampled == []
        assert cli.main(argv) == 0
        assert sampled == [cli.VERIFY_BLOCK, 1]

    def test_out_does_not_leak(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        assert cli.main(["region", "--grid", "5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(["region", "--grid", "5"]) == 0
        assert capsys.readouterr().out == out.read_text()


MAP_ARGS = ["map", "--state", "s.json", "--mode", "M", "--mu", "0.5", "--out", "o.json"]
# Every subcommand with its defaults and with every option, then argvs that
# exercise argparse's help, abbreviation, error and "--" paths.
PARSE_TABLE = [
    ["analyze", "--state", "s.json"],
    ["analyze", "--state", "s.json", "--out", "o.json"],
    MAP_ARGS,
    MAP_ARGS + ["--c", "0.25", "--force"],
    ["region"],
    ["region", "--grid", "7", "--tol", "1e-8", "--out", "r.csv"],
    ["verify", "lhs"],
    ["verify", "spm", "--trials", "3", "--seed", "5", "--tol", "1e-9", "--dims", "2x3",
     "--mu", "0.3", "--c", "0.2", "--out", "v.json"],
    ["verify", "--dims=3x2", "lhs", "--seed", "-4"],
    ["demo-werner"],
    ["demo-werner", "--grid", "11", "--out", "w.csv"],
    ["verify", "lhs", "--tri", "2"],
    ["verify", "lhs", "--t", "2"],
    ["-h"],
    ["-h", "verify"],
    ["analyze", "-h"],
    ["map", "--help"],
    ["region", "-h"],
    ["verify", "lhs", "-h"],
    ["demo-werner", "--he"],
    ["verify", "--bogus", "lhs"],
    ["verify", "lhs", "--bogus"],
    ["verify", "lhs", "--bogus=1"],
    ["verify", "lhs", "spm"],
    ["region", "extra"],
    ["verify", "lhs", "--dims"],
    ["verify", "lhs", "--trials", "x"],
    ["verify", "xyz"],
    ["verify"],
    ["analyze"],
    [],
    ["bogus"],
    ["ver", "lhs"],
    ["--", "verify", "lhs"],
    ["verify", "--", "lhs"],
    ["verify", "lhs", "--"],
    ["verify", "--", "-h"],
    ["verify", "lhs", "--", "--trials"],
    # The edges of the plain path, which builds its namespace without argparse.
    ["verify", "lhs", "--mu", "-0.5", "--c", "0.1"],
    ["verify", "lhs", "--mu", "-.5"],
    ["verify", "lhs", "--trials=3"],
    MAP_ARGS + ["--c=0.2"],
    ["verify", "lhs", "--trials", "2", "--trials", "3"],
    ["verify", "lhs", "--trials", "3.0", "--trials", "3"],
    MAP_ARGS + ["--force", "--force"],
    ["analyze", "--state", ""],
    ["analyze", "--state", "-"],
    ["analyze", "--state", "--out"],
    ["verify", "lhs", "--trials", "3.0"],
    ["verify", "--seed", "1", "xyz"],
    ["verify", "lhs", "--seed", "1", "spm"],
    ["verify", "--trials", "2", "lhs"],
    MAP_ARGS[:-2],
]
# Each subcommand's required pieces, then its optional ones, each with a value it accepts.
PIECES = {
    "analyze": ([("--state", "s.json")], [("--out", "o.json")]),
    "map": ([("--state", "s.json"), ("--mode", "N"), ("--mu", "0.3"), ("--out", "o.json")],
            [("--c", "0.2"), ("--force",)]),
    "region": ([], [("--grid", "7"), ("--tol", "1e-9"), ("--out", "r.csv")]),
    "verify": ([("lhs",)], [("--trials", "3"), ("--seed", "5"), ("--tol", "1e-9"),
                            ("--dims", "2x3"), ("--mu", "0.3"), ("--c", "0.2"), ("--out", "v.json")]),
    "demo-werner": ([], [("--grid", "11"), ("--out", "w.csv")]),
}
OPTIONS = sorted({p[0] for r, o in PIECES.values() for p in r + o if p[0].startswith("-")}
                 | {"-h", "--help"})
EDGE_VALUES = ["spm", "xyz", "3", "3.0", "-1", "-0.5", "-.5", "", "-", "--"]
# Every option string and abbreviation, the subcommand names and values at the plain path's edges.
TOKENS = sorted({o[:n] for o in OPTIONS for n in range(2, len(o) + 1)} | set(PIECES)
                | set(EDGE_VALUES) | {"--trials=3", "--mu=0.3"})


def _near_plain_argvs(name):
    """``name``, its required pieces, some optional ones and up to two edge pieces, in any order."""
    required, optional = PIECES[name]
    edge = st.one_of(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(EDGE_VALUES)),
                     st.sampled_from(TOKENS).map(lambda t: (t,)))
    pieces = st.tuples(st.lists(st.sampled_from(optional), unique=True), st.lists(edge, max_size=2))
    return (pieces.flatmap(lambda p: st.permutations(required + p[0] + p[1]))
            .map(lambda ps: [name, *(t for p in ps for t in p)]))


def _parse_outcome(parse, argv, capsys):
    """What ``parse(argv)`` does: its namespace items or exit code, then stdout and stderr."""
    try:
        result = list(vars(parse(argv)).items())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestOnePassParse:
    """cli.parse_args is the full parser's parse_args, byte for byte, in at most one pass:
    plain subcommand argvs skip argparse."""

    @pytest.mark.parametrize("argv", PARSE_TABLE, ids=" ".join)
    def test_matches_the_full_parser(self, argv, capsys):
        want = _parse_outcome(cli.build_parser().parse_args, list(argv), capsys)
        assert _parse_outcome(cli.parse_args, list(argv), capsys) == want

    def test_reads_sys_argv_by_default(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["steermap", "verify", "spm", "--trials", "2"])
        assert cli.parse_args() == cli.build_parser().parse_args()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
    @hypothesis.given(argv=st.sampled_from(sorted(PIECES)).flatmap(_near_plain_argvs))
    def test_matches_the_full_parser_on_drawn_argvs(self, argv, capsys):
        want = _parse_outcome(cli.build_parser().parse_args, list(argv), capsys)
        assert _parse_outcome(cli.parse_args, list(argv), capsys) == want

    @pytest.mark.parametrize("argv", [
        ["verify", "lhs", "--dims", "3x2", "--trials", "3", "--seed", "41"],
        ["verify", "spm", "--dims", "2x4", "--trials", "2", "--seed", "0"],
        ["map", "--state", "s.json", "--mode", "M", "--mu", "0.3", "--c", "0.2", "--out", "o"],
        ["map", "--state", "s.json", "--mode", "N", "--mu", "0.7", "--c", "1e-05", "--out", "o"],
        ["analyze", "--state", "s.json"],
        ["region", "--grid", "200"],
    ], ids=" ".join)
    def test_a_subcommand_argv_skips_the_full_parser(self, argv, monkeypatch):
        want = vars(cli.build_parser().parse_args(argv))
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda *a, **k: pytest.fail("argparse parse"))
        assert vars(cli.parse_args(argv)) == want

    def test_a_parser_with_another_kind_of_action_is_never_plain(self):
        p = argparse.ArgumentParser()
        p.add_argument("--grid", type=int)
        assert cli._plain_table(p) is not None
        p.add_argument("--verbose", action="count")
        assert cli._plain_table(p) is None

    def test_every_benchmark_argv_skips_the_full_parser(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        argvs = [
            req.argv_for(str(tmp_path / "out.json"))
            for name, w in workloads.WORKLOADS.items()
            for seed in range(1, 21)
            for req in w.make(w.rng(seed), tmp_path / f"{name}-{seed}")
        ]
        assert {a[0] for a in argvs} == {"verify", "map", "analyze", "region", "demo-werner"}
        want = [vars(cli.build_parser().parse_args(a)) for a in argvs]
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda *a, **k: pytest.fail("argparse parse"))
        assert [vars(cli.parse_args(a)) for a in argvs] == want

    @pytest.mark.parametrize("argv", [["verify", "lhs", "--bogus"], ["ver", "lhs"], []])
    def test_leftovers_and_other_argvs_go_to_the_full_parser(self, argv, monkeypatch):
        calls = []
        full = cli.build_parser()
        monkeypatch.setattr(full, "parse_args", lambda argv: calls.append(argv))
        cli.parse_args(argv)
        assert calls == [argv]


class TestFailedWrite:
    """A failed write exits 2 with its message, leaves stdout empty and no temp file behind."""

    @pytest.mark.parametrize("command", ["region", "map", "demo-werner"])
    def test_out_is_a_directory(self, tmp_path, werner_file, capsys, command):
        argv = {
            "region": ["region", "--grid", "3"],
            "map": ["map", "--state", werner_file(0.9), "--mode", "M", "--mu", "0.3"],
            "demo-werner": ["demo-werner", "--grid", "3"],
        }[command]
        target = tmp_path / "target"
        target.mkdir()
        assert cli.main(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")
        assert f"'{target}'" in captured.err
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert list(target.iterdir()) == []


class TestDemoWerner:
    def test_columns_and_implications(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert cli.main(["demo-werner", "--grid", "41", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "p", "negativity_sigma", "f3_tau", "chsh_tau", "steerable_rho_oracle",
            "impl_steerable_nonlocal", "impl_entangled_steerable",
        ]
        assert len(lines) == 42
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[5] == "true"
            assert cells[6] == "true"

    def test_full_visibility_row(self, capsys):
        assert cli.main(["demo-werner", "--grid", "2"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        zero = rows[1].split(",")
        assert float(zero[1]) == 0.0 and float(zero[2]) == 0.0 and float(zero[3]) == 0.0
        top = rows[2].split(",")
        assert float(top[0]) == 1.0
        assert float(top[3]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert top[4] == "true"

    def test_known_rows(self, capsys):
        # 21-point grid hits p = 0.5 and p = 0.9 exactly.
        assert cli.main(["demo-werner", "--grid", "21"]) == 0
        rows = {row.split(",")[0]: row.split(",") for row in
                capsys.readouterr().out.strip().split("\n")[1:]}
        mid = rows["0.5"]
        assert float(mid[1]) == 0.0  # mapped state still unentangled
        assert float(mid[2]) == pytest.approx(1.5, abs=1e-10)
        assert mid[4] == "false"
        high = rows["0.9"]
        assert high[4] == "true"
        assert float(high[3]) == pytest.approx(2.545584412271, abs=1e-9)

    def test_separable_points_report_zero_negativity(self, capsys):
        # Grid 114 puts p = 6/113 where the mapped state's negativity
        # used to print as 1.11e-16 and break the implication column.
        assert cli.main(["demo-werner", "--grid", "114"]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 114
        assert float(rows[6][0]) == pytest.approx(6 / 113, abs=1e-12)
        assert rows[6][1] == "0"
        for row in rows:
            assert row[5:] == ["true", "true"]
            if float(row[0]) < INV_SQRT3:
                assert row[1] == "0"

    def test_grid_validation(self):
        assert cli.main(["demo-werner", "--grid", "1"]) == 2


def _state_payload(**fields):
    mat = werner(0.5).mat
    payload = {"dims": [2, 2], "re": mat.real.tolist(), "im": mat.imag.tolist(), **fields}
    return json.dumps(payload)


def _product_state_with(entry):
    """|00><00| as state JSON, with ``entry`` in place of its 1 at re[0][0]."""
    re = np.zeros((4, 4)).tolist()
    re[0][0] = entry
    return json.dumps({"dims": [2, 2], "re": re, "im": np.zeros((4, 4)).tolist()})


class TestStateJsonBoundary:
    """Malformed state JSON exits 2 with a message, and nothing is written."""

    PAYLOADS = {
        "dims-null": _state_payload(dims=[2, None]),
        "dims-nested": _state_payload(dims=[[2], 2]),
        "re-object": _state_payload(re={"a": 1}),
        "dims-float": _state_payload(dims=[2.7, 2]),
        "dims-huge": _state_payload(dims=[10**400, 2]),
        # numpy alone reads true as 1 (a valid state) and "a" as a float error.
        "re-bool": _product_state_with(True),
        "re-string": _product_state_with("a"),
        "re-numeric-string": _product_state_with("1"),
        "re-null": _product_state_with(None),
        "re-huge-int": _product_state_with(10**400),
    }
    NOT_NUMBERS = "'re'/'im' must be 2-D arrays of numbers"
    MESSAGES = {
        "dims-null": "'dims' must be a list of two integers, got [2, None]",
        "dims-nested": "'dims' must be a list of two integers, got [[2], 2]",
        "re-object": NOT_NUMBERS,
        "dims-float": "'dims' must be a list of two integers, got [2.7, 2]",
        "dims-huge": "'dims' entries must not exceed the matrix side 4",
        "re-bool": NOT_NUMBERS,
        "re-string": NOT_NUMBERS,
        "re-numeric-string": NOT_NUMBERS,
        "re-null": NOT_NUMBERS,
        "re-huge-int": NOT_NUMBERS,
    }

    @pytest.mark.parametrize("case", list(PAYLOADS))
    @pytest.mark.parametrize("command", ["analyze", "map"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, case):
        path = tmp_path / "state.json"
        path.write_text(self.PAYLOADS[case])
        out = tmp_path / "out.json"
        argv = [command, "--state", str(path), "--out", str(out)]
        if command == "map":
            argv += ["--mode", "M", "--mu", "0.3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {self.MESSAGES[case]}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["analyze", "map"])
    def test_deep_nesting_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # The JSON parser recurses once per level; the loader must turn
        # running out of stack into an input error, not crash main.
        path = tmp_path / "state.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out.json"
        argv = [command, "--state", str(path), "--out", str(out)]
        if command == "map":
            argv += ["--mode", "M", "--mu", "0.3"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: state JSON nests too deeply to parse\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_product_state_with_a_number_loads(self):
        assert states.state_from_json(_product_state_with(1)).mat[0, 0] == 1.0

    def test_bool_dims_are_not_integers(self):
        with pytest.raises(ValueError, match="list of two integers"):
            states.state_from_json(_state_payload(dims=[True, 2]))
