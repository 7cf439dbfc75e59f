"""CLI harness: schemas, exit codes, manifests, reproducibility."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adelic_diffusion import SigmaSequence, exit_count_samples
from adelic_diffusion.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestDensity:
    def test_table_and_normalization_row(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["density", "-p", "2", "--b", "1", "--sigma", "1",
                                   "--t", "1", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert rows[0] == ["schema_id", "m", "density", "sphere_mass", "ball_mass"]
        assert rows[1][0] == "density_v1"
        total_row = rows[-1]
        assert total_row[1] == "TOTAL"
        assert abs(float(total_row[3]) - 1.0) < 1e-10
        masses = [float(r[4]) for r in rows[1:-1]]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == "density"
        assert "alpha" in manifest["derived"]

    def test_bad_config_exit_code(self, runner, tmp_path):
        res = runner.invoke(main, ["density", "-p", "9", "-o", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("t", ["1e-300", "1e300"])
    def test_extreme_time_runs(self, runner, tmp_path, t):
        # p^m past the largest float reads inf, and rate / eps is not formed
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["density", "--t", t, "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert read_csv(out)[-1][1] == "TOTAL"


class TestExit:
    def test_analytic_vs_mc(self, runner, tmp_path):
        out = tmp_path / "e.csv"
        res = runner.invoke(main, ["exit", "-p", "2", "--b", "1", "--sigma", "1",
                                   "-T", "1", "--r", "0", "--n-paths", "3000",
                                   "--seed", "5", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = {r[1]: r for r in read_csv(out)[1:]}
        analytic = float(rows["analytic"][4])
        assert analytic == pytest.approx(math.exp(-2 / 3), abs=1e-12)
        mc = float(rows["event_mc"][4])
        se = float(rows["event_mc"][5])
        assert se == pytest.approx(math.sqrt(analytic * (1 - analytic) / 3000), rel=1e-9)
        assert abs(mc - analytic) <= 3 * se
        sk, sk_se = float(rows["skeleton_mc"][4]), float(rows["skeleton_mc"][5])
        assert abs(sk - analytic) <= 3 * sk_se


class TestSample:
    def test_event_rows(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sample", "-p", "3", "--b", "1", "--sigma", "1",
                                   "-T", "2", "--n-paths", "5", "--seed", "2",
                                   "--resolution", "0", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert rows[0][1:] == ["path_id", "kind", "time", "prime", "valuation",
                               "digits", "abs_exp"]
        assert any(r[2] == "event" for r in rows[1:])


class TestExitCount:
    def test_pmf_bounds_and_moments(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sigma_explicit": [p ** -2 for p in (2, 3, 5, 7, 11)],
            "b": 1.0, "T": 1.0, "truncation": 5, "k_max": 5,
            "n_paths": 3000, "seed": 3,
        }))
        res = runner.invoke(main, ["exit-count", "--config", str(cfg), "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        pmf_rows = [r for r in rows[1:] if r[1] == "pmf"]
        assert len(pmf_rows) == 6
        for r in pmf_rows[1:]:
            assert r[8] == "True"  # strictly below factorial bound for k >= 1
        moment_rows = [r for r in rows[1:] if r[1] == "moment"]
        assert all(r[8] == "True" for r in moment_rows)

    def test_default_run_is_below_bound(self, runner, tmp_path):
        # the bound is on the full count: at k = 0 the truncated pmf (0.72152 at
        # N = 15) lies above it, the lower end of the full count's pmf does not
        out = tmp_path / "c.csv"
        res = runner.invoke(main, ["exit-count", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert rows[0][8] == "below_bound"
        assert [r[8] for r in rows[1:]] == ["True"] * 13

    def test_mc_column_is_vectorised_sampler(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        res = runner.invoke(main, ["exit-count", "-N", "6", "--k-max", "4",
                                   "--n-paths", "3000", "--seed", "12", "-o", str(out)])
        assert res.exit_code == 0, res.output
        mc = [float(r[7]) for r in read_csv(out)[1:] if r[1] == "pmf"]
        draws = exit_count_samples(SigmaSequence.inverse_square(), 1.0, 1.0, 6, 3000, 12)
        assert mc == list(np.bincount(draws, minlength=7)[:5] / 3000)


class TestOperator:
    def test_norm_table(self, runner, tmp_path):
        out = tmp_path / "op.csv"
        res = runner.invoke(main, ["operator", "--b", "1.0", "--primes", "2,3",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = [r for r in read_csv(out)[1:] if r[1] == "norm"]
        two = [r for r in rows if r[2] == "2"][0]
        assert float(two[5]) == pytest.approx(4 / 7, abs=1e-14)
        assert float(two[7]) < 1e-12

    def test_rerun_from_manifest_keeps_observable(self, runner, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{"prime": 2, "terms": [
            {"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        out = tmp_path / "a.csv"
        res = runner.invoke(main, ["operator", "--primes", "2", "--observable", str(obs),
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert any(r[1] == "apply" for r in read_csv(out)[1:])
        again = tmp_path / "b.csv"
        res = runner.invoke(main, ["operator", "--config", str(out) + ".manifest.json",
                                   "-o", str(again)])
        assert res.exit_code == 0, res.output
        assert again.read_bytes() == out.read_bytes()


class TestFk:
    def test_expectation_with_files(self, runner, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{
            "prime": 2, "terms": [{"zero": True, "radius_exp": 0, "coeff": 1.0}],
        }]}))
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{
            "prime": 2, "tau": 0.5,
            "terms": [{"zero": True, "radius_exp": 0, "coeff": 1.0}],
        }]}))
        out = tmp_path / "fk.csv"
        res = runner.invoke(main, ["fk", "--b", "1", "--t", "1", "--n-paths", "2000",
                                   "-N", "2", "--seed", "4", "--observable", str(obs),
                                   "--potential", str(pot), "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        exp_row = [r for r in rows[1:] if r[1] == "expectation"][0]
        val, se = float(exp_row[2]), float(exp_row[4])
        assert 0.0 < val < 1.0 and se > 0


class TestFkManifest:
    """A manifest carries its input documents, so a re-run reproduces the data."""

    def rerun(self, runner, out, tmp_path):
        again = tmp_path / "again.csv"
        res = runner.invoke(main, ["fk", "--config", str(out) + ".manifest.json",
                                   "-o", str(again)])
        assert res.exit_code == 0, res.output
        return again.read_bytes()

    def test_expectation_with_observable_point_potential(self, runner, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{"prime": 3, "terms": [
            {"valuation": 0, "digits": [1], "radius_exp": -1, "coeff": 1.0}]}]}))
        pt = tmp_path / "pt.json"
        pt.write_text(json.dumps({"components": [{"prime": 3, "valuation": 0,
                                                  "digits": [1]}]}))
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{"prime": 3, "tau": 0.7, "terms": [
            {"valuation": 0, "digits": [1], "radius_exp": -1, "coeff": 1.0}]}]}))
        out = tmp_path / "fk.csv"
        res = runner.invoke(main, ["fk", "--n-paths", "1000", "-N", "3", "--seed", "2",
                                   "--observable", str(obs), "--point", str(pt),
                                   "--potential", str(pot), "-o", str(out)])
        assert res.exit_code == 0, res.output
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert config["observable"] == json.loads(obs.read_text())
        assert config["point"] == json.loads(pt.read_text())
        assert config["potential"] == json.loads(pot.read_text())
        assert self.rerun(runner, out, tmp_path) == out.read_bytes()

    def test_default_truncation_covers_the_potential(self, runner, tmp_path):
        # 11 is the fifth prime: the default truncation is max(4, 5)
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{"prime": 11, "tau": 0.7, "terms": [
            {"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        out = tmp_path / "fk.csv"
        res = runner.invoke(main, ["fk", "--n-paths", "500", "--seed", "5",
                                   "--potential", str(pot), "-o", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["derived"]["truncation"] == 5
        assert self.rerun(runner, out, tmp_path) == out.read_bytes()

    def test_kernel_with_endpoint(self, runner, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{
            "prime": 2, "tau": 0.5,
            "terms": [{"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"components": [{"prime": 2, "zero": True}]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"components": [
            {"prime": 2, "valuation": 0, "digits": [1]}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bridge_steps": 8}))
        out = tmp_path / "k.csv"
        res = runner.invoke(main, [
            "fk", "--config", str(cfg), "--n-paths", "100", "-N", "1", "--seed", "3",
            "--potential", str(pot), "--point", str(x), "--endpoint", str(y),
            "-o", str(out),
        ])
        assert res.exit_code == 0, res.output
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert config["endpoint"] == json.loads(y.read_text())
        assert self.rerun(runner, out, tmp_path) == out.read_bytes()

    def test_kernel_mode_rejects_observable(self, runner, tmp_path):
        # the kernel estimators never read the observable
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{"prime": 2, "terms": [
            {"zero": True, "radius_exp": -1, "coeff": 1.0}]}]}))
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"components": [{"prime": 2, "zero": True}]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"components": [
            {"prime": 2, "valuation": 0, "digits": [1]}]}))
        res = runner.invoke(main, ["fk", "--n-paths", "10", "-N", "1", "--point", str(x),
                                   "--endpoint", str(y), "--observable", str(obs),
                                   "-o", str(tmp_path / "k.csv")])
        assert res.exit_code == 2
        assert "takes no observable" in res.output

    def test_observable_without_point_is_config_error(self, runner, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{"prime": 3, "terms": [
            {"valuation": 0, "digits": [1], "radius_exp": -1, "coeff": 1.0}]}]}))
        res = runner.invoke(main, ["fk", "--n-paths", "1000000", "-N", "4",
                                   "--observable", str(obs),
                                   "-o", str(tmp_path / "fk.csv")])
        assert res.exit_code == 2
        assert "needs a resolved point" in res.output


class TestKernelSymmetryRecord:
    def test_reversed_row_emitted(self, runner, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{
            "prime": 2, "tau": 0.5,
            "terms": [{"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"components": [{"prime": 2, "zero": True}]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"components": [
            {"prime": 2, "valuation": 0, "digits": [1]}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bridge_steps": 16}))
        out = tmp_path / "k.csv"
        res = runner.invoke(main, [
            "fk", "--config", str(cfg), "--b", "1", "--t", "1", "--n-paths", "400",
            "-N", "1", "--seed", "6", "--potential", str(pot), "--point", str(x),
            "--endpoint", str(y), "-o", str(out),
        ])
        assert res.exit_code == 0, res.output
        rows = {r[1]: r for r in read_csv(out)[1:]}
        assert "kernel" in rows and "kernel_reversed" in rows
        kf, kr = float(rows["kernel"][2]), float(rows["kernel_reversed"][2])
        sf, sr = float(rows["kernel"][4]), float(rows["kernel_reversed"][4])
        assert abs(kf - kr) <= 4 * math.hypot(sf, sr)


class TestNumericFailureExitCode:
    def test_bridge_underflow_exits_three(self, runner, tmp_path):
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{
            "prime": 2, "tau": 0.5,
            "terms": [{"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"components": [{"prime": 2, "zero": True}]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"components": [
            {"prime": 2, "valuation": -131072, "digits": [1]}]}))
        res = runner.invoke(main, [
            "fk", "--b", "1", "--t", "0.001", "--n-paths", "50", "-N", "1",
            "--seed", "6", "--potential", str(pot), "--point", str(x),
            "--endpoint", str(y), "-o", str(tmp_path / "k.csv"),
        ])
        assert res.exit_code == 3

    def test_valuation_out_of_range_exits_three(self, runner, tmp_path):
        pt = tmp_path / "pt.json"
        pt.write_text(json.dumps({"components": [
            {"prime": 2, "valuation": 2_000_000, "digits": [1]}]}))
        res = runner.invoke(main, ["fk", "--n-paths", "10", "-N", "1", "--point", str(pt),
                                   "-o", str(tmp_path / "fk.csv")])
        assert res.exit_code == 3
        assert "numeric failure" in res.output


class TestExitCodes:
    """One case per exit code: the code follows the error class."""

    def test_config_errors_exit_two(self, runner, tmp_path):
        # a divergent rate sequence, a config that is not JSON, and an
        # observable document without its prime
        bad = {"sum.json": json.dumps({"sigma_tail_power": 1.0}), "text.json": "t = 1",
               "obs.json": json.dumps({"observable": {"factors": [{"terms": []}]}})}
        for name, text in bad.items():
            (tmp_path / name).write_text(text)
            res = runner.invoke(main, ["fk", "--config", str(tmp_path / name), "--n-paths", "10",
                                       "-o", str(tmp_path / "fk.csv")])
            assert res.exit_code == 2, name
            assert "config error" in res.output

    @pytest.mark.parametrize("args", [["exit", "--n-paths", "0"],
                                      ["exit-count", "--n-paths", "0"],
                                      ["sample", "--n-paths", "-1"]])
    def test_nonpositive_path_count_exits_two(self, runner, tmp_path, args):
        out = tmp_path / "o.csv"
        res = runner.invoke(main, [*args, "-o", str(out)])
        assert res.exit_code == 2
        assert "config error: n_paths must be positive" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--b", "-1"], "exponent b must be positive"),
        (["--primes", "1"], "p=1 is not prime"),
        (["--primes", "0,2"], "p=0 is not prime"),
        (["--primes", "2,4"], "p=4 is not prime"),
    ])
    def test_operator_input_exits_two_before_any_row(self, runner, tmp_path, args, message):
        out = tmp_path / "op.csv"
        res = runner.invoke(main, ["operator", *args, "-o", str(out)])
        assert res.exit_code == 2
        assert f"config error: {message}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["-T", "-1"], "T must be nonnegative"),
        (["--b", "0"], "exponent b must be positive"),
        (["-N", "-1"], "truncation N must be nonnegative"),
    ])
    def test_exit_count_input_exits_two_before_any_row(self, runner, tmp_path, args, message):
        out = tmp_path / "c.csv"
        res = runner.invoke(main, ["exit-count", *args, "-o", str(out)])
        assert res.exit_code == 2
        assert f"config error: {message}" in res.output
        assert not out.exists()

    def test_truncation_error_exits_three(self, runner, tmp_path):
        res = runner.invoke(main, ["sample", "-p", "2", "-T", "1", "--resolution", "-40",
                                   "--n-paths", "1", "-o", str(tmp_path / "s.csv")])
        assert res.exit_code == 3
        assert "numeric failure" in res.output

    def test_coarse_centre_under_potential_exits_four(self, runner, tmp_path):
        # the observable's ball at 3 has radius 3^-2 but a centre known mod 3 only
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"factors": [{"prime": 3, "terms": [
            {"valuation": 0, "digits": [1], "radius_exp": -2, "coeff": 1.0}]}]}))
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps({"components": [{"prime": 3, "tau": 0.5, "terms": [
            {"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}))
        pt = tmp_path / "pt.json"
        pt.write_text(json.dumps({"components": [{"prime": 3, "zero": True}]}))
        res = runner.invoke(main, ["fk", "--n-paths", "10", "-N", "2", "--observable", str(obs),
                                   "--potential", str(pot), "--point", str(pt),
                                   "-o", str(tmp_path / "fk.csv")])
        assert res.exit_code == 4
        assert "unresolved input" in res.output
        assert "ball centre" in res.output

    def test_bare_value_error_is_internal_error(self, runner, tmp_path, monkeypatch):
        from adelic_diffusion import cli

        def broken(req):
            raise ValueError("broken estimator")

        monkeypatch.setattr(cli, "fk_expectation", broken)
        res = runner.invoke(main, ["fk", "--n-paths", "10", "-o", str(tmp_path / "fk.csv")])
        assert res.exit_code == 70
        assert "internal error" in res.output
        assert "Traceback" in res.output and "broken estimator" in res.output
        assert "config error" not in res.output


class TestWorkerCount:
    def fk(self, runner, tmp_path, args):
        return runner.invoke(main, ["fk", "--n-paths", "10", "-N", "2", *args,
                                    "-o", str(tmp_path / "fk.csv")])

    def test_zero_workers_is_config_error(self, runner, tmp_path):
        res = self.fk(runner, tmp_path, ["--workers", "0"])
        assert res.exit_code == 2
        assert "workers must be positive" in res.output

    def test_one_bridge_step_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bridge_steps": 1}))
        res = self.fk(runner, tmp_path, ["--config", str(cfg)])
        assert res.exit_code == 2
        assert "bridge_steps must be at least 2" in res.output


BALL_AT_ZERO = [{"zero": True, "radius_exp": 0, "coeff": 1.0}]
RERUN_CASES = {
    "density": ["density", "-p", "3", "--t", "0.5"],
    "exit": ["exit", "-p", "2", "-T", "0.5", "--r", "0", "--n-paths", "50", "--seed", "4"],
    "sample": ["sample", "-p", "3", "-T", "1", "--n-paths", "3", "--seed", "2"],
    "exit-count": ["exit-count", "--seed", "3", "--n-paths", "800", "-N", "4",
                   "--k-max", "4"],
    "operator": ["operator", "--primes", "2", "--observable", "obs.json"],
    "fk": ["fk", "--n-paths", "500", "-N", "3", "--seed", "2", "--potential", "pot.json"],
    "validate": ["validate", "--inject-alpha-bug"],
}


class TestManifestReproducibility:
    @pytest.mark.parametrize("command", list(RERUN_CASES))
    def test_rerun_from_manifest_bit_identical(self, runner, tmp_path, monkeypatch,
                                               command):
        monkeypatch.chdir(tmp_path)
        Path("obs.json").write_text(json.dumps(
            {"factors": [{"prime": 2, "terms": BALL_AT_ZERO}]}))
        Path("pot.json").write_text(json.dumps(
            {"components": [{"prime": 2, "tau": 0.5, "terms": BALL_AT_ZERO}]}))
        res = runner.invoke(main, [*RERUN_CASES[command], "-o", "a.csv"])
        assert res.exit_code == 0, res.output
        res2 = runner.invoke(main, [command, "--config", "a.csv.manifest.json",
                                    "-o", "b.csv"])
        assert res2.exit_code == 0, res2.output
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

    @pytest.mark.parametrize("command", ["density", "operator", "validate"])
    def test_seed_rejected_where_nothing_is_drawn(self, runner, tmp_path, command):
        res = runner.invoke(main, [command, "--seed", "1", "-o", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_unread_config_key_is_config_error(self, runner, tmp_path):
        for command, doc in (("fk", {"product": True}), ("fk", {"n_path": 10}),
                             ("density", {"seed": 1})):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            res = runner.invoke(main, [command, "--config", str(cfg),
                                       "-o", str(tmp_path / "x.csv")])
            assert res.exit_code == 2, (command, doc)
            assert f"unknown config keys for {command}: {next(iter(doc))}" in res.output
        assert not (tmp_path / "x.csv").exists()

    def test_output_flag_wins_over_config_output(self, runner, tmp_path):
        a, b, c = (tmp_path / f"{name}.csv" for name in "abc")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prime": 3, "output": str(a)}))
        res = runner.invoke(main, ["density", "--config", str(cfg), "-o", str(b)])
        assert res.exit_code == 0, res.output
        assert b.exists() and not a.exists()
        res = runner.invoke(main, ["density", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        original = a.read_bytes()
        res = runner.invoke(main, ["density", "--config", str(a) + ".manifest.json",
                                   "--t", "2", "-o", str(c)])
        assert res.exit_code == 0, res.output
        assert a.read_bytes() == original
        assert c.read_bytes() != original

    def test_rerun_from_manifest_leaves_config_output_alone(self, runner, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prime": 3, "output": str(a)}))
        res = runner.invoke(main, ["density", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        original = a.read_bytes()
        res = runner.invoke(main, ["density", "--config", str(cfg), "--t", "2", "-o", str(b)])
        assert res.exit_code == 0, res.output
        manifest = json.loads(Path(str(b) + ".manifest.json").read_text())
        assert "output" not in manifest["config"] and manifest["output"] == str(b)
        res = runner.invoke(main, ["density", "--config", str(b) + ".manifest.json"])
        assert res.exit_code == 0, res.output
        assert a.read_bytes() == original
        assert (tmp_path / "density.csv").read_bytes() == b.read_bytes()

    def test_json_lines_format(self, runner, tmp_path):
        out = tmp_path / "d.jsonl"
        res = runner.invoke(main, ["density", "-p", "3", "--format", "json",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(doc["schema_id"] == "density_v1" for doc in lines)


class TestValidateCommand:
    def test_injected_alpha_bug_detected(self, runner, tmp_path):
        out = tmp_path / "v.csv"
        res = runner.invoke(main, ["validate", "--inject-alpha-bug", "-o", str(out)])
        assert "injected-bug detected" in res.output
        assert res.exit_code == 0

    def test_injected_alpha_bug_runs_only_exit_law(self, runner, tmp_path):
        out = tmp_path / "v.csv"
        res = runner.invoke(main, ["validate", "--inject-alpha-bug", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_csv(out)[1:]
        assert [(r[2], r[3]) for r in rows] == [("exit_law_event_mc", "False")]


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, adelic_diffusion.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_fk_with_potential_loads_no_scipy(self, tmp_path):
        # the closed-form means behind the event-path controls need no scipy
        pot, x = tmp_path / "pot.json", tmp_path / "x.json"
        pot.write_text(json.dumps({"components": [{"prime": 3, "tau": 1.0, "terms": [
            {"valuation": 0, "digits": [1], "radius_exp": -1, "coeff": 1.0},
            {"valuation": 0, "digits": [1], "radius_exp": 0, "coeff": 0.25}]}]}))
        x.write_text(json.dumps({"components": [{"prime": 3, "zero": True}]}))
        args = ["fk", "--n-paths", "500", "--seed", "12", "--potential", str(pot),
                "--point", str(x), "-o", str(tmp_path / "t.csv")]
        code = ("import sys; from adelic_diffusion.cli import main; "
                f"main({args!r}, standalone_mode=False); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert (tmp_path / "t.csv").exists()
        assert out.stdout.strip().splitlines()[-1] == "[]"
