import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdred import cli
from sdred.cli import main
from sdred.config import SCHEMAS
from sdred.io import read_tensor
from sdred.theory import BoundReport


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RECON_SMALL = """
kind = recon-tv
size = 32
num_lines = 10
tv_weight = 0.01
iters = 30
inner_iters = 40
"""


class TestReconCommand:
    def test_artifacts_written(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RECON_SMALL)
        out = tmp_path / "out"
        assert main(["recon", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "final.mrt").exists()
        assert (out / "summary.txt").exists()
        assert (out / "config_resolved.cfg").exists()
        assert "psnr=" in capsys.readouterr().out
        img = read_tensor(out / "final.mrt")
        assert img.shape == (32, 32)

    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = recon-tv\n")
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "num_lines" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RECON_SMALL + "mystery = 3\n")
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_hashed_mismatch_mode_exits_2_naming_the_key(self, tmp_path, capsys):
        # A mismatch is a fixed offset; "fixed" is the one mode left.
        cfg = write_cfg(tmp_path, RECON_SMALL + "epsilon = 0.1\nmismatch_mode = hashed\n")
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'mismatch_mode'" in capsys.readouterr().err

    def test_coil_recon_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, RECON_SMALL + "coils = 3\n")
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_out_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RECON_SMALL)
        assert main(["recon", "--config", cfg]) == 2
        assert "out" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["recon", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_internal_error_exits_4_not_1(self, tmp_path, capsys, monkeypatch):
        # recon verifies nothing, so an error in the run is a crash, not a
        # failed bound.  A valid config raises none, so the solver is made to.
        def rejecting(problem, config):
            raise ValueError("step size rejected")

        monkeypatch.setattr(cli, "run_sd_red", rejecting)
        cfg = write_cfg(tmp_path, RECON_SMALL)
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "step size rejected" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_produces_one_trace_per_cell(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = linear-theory\nn = 6\nlam = 0.5\niters = 200\n"
            "tau_grid = 0.5, 1, 2\nsigma_grid = 0.5, 1, 2\nepsilon_grid = 0, 0.2\n",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        traces = list(out.glob("trace_*.csv"))
        assert len(traces) == 18
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "tau,sigma,epsilon,final_g_norm_sq_ratio,final_dist_to_ref"
        assert len(summary) == 19

    def test_epsilon_monotonicity_on_linear_family(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = linear-theory\nn = 6\nlam = 0.4\niters = 4000\n"
            "tau_grid = 1\nsigma_grid = 1\nepsilon_grid = 0, 0.1, 0.2, 0.4\n",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        dists = [float(r.split(",")[4]) for r in rows]
        for a, b in zip(dists, dists[1:]):
            assert b >= a - 1e-10


    @pytest.mark.filterwarnings("ignore:step size", "ignore::RuntimeWarning")
    def test_failed_cells_are_listed_and_set_the_exit_status(self, tmp_path, capsys,
                                                             monkeypatch):
        # A valid config fails no cell but by divergence, so the cells at
        # tau = 2 are made to raise.
        build = cli._build_recon

        def failing_at_tau_2(cfg):
            if cfg["tau"] == 2.0:
                raise ValueError("cell rejected")
            return build(cfg)

        monkeypatch.setattr(cli, "_build_recon", failing_at_tau_2)
        grid = "num_lines = 10\nsize = 32\niters = 400\nsigma_grid = 1\nepsilon_grid = 0\n"
        bad_tau = write_cfg(tmp_path, "kind = recon-gaussian-prior\ntau_grid = 2, 1\n" + grid,
                            "bad.cfg")
        out = tmp_path / "bad"
        assert main(["sweep", "--config", bad_tau, "--out", str(out)]) == 4
        assert (out / "failures.txt").read_text().startswith("cell 0 (tau=2.0,")
        assert len((out / "summary.csv").read_text().strip().splitlines()) == 2
        # A step far past both theorem ranges overflows the iterate: exit 3
        # even though another cell failed first for a different reason.
        diverging = write_cfg(
            tmp_path, "kind = recon-gaussian-prior\ngamma = 1000\ntau_grid = 2, 1\n" + grid,
            "div.cfg",
        )
        out = tmp_path / "div"
        assert main(["sweep", "--config", diverging, "--out", str(out)]) == 3
        lines = (out / "failures.txt").read_text().splitlines()
        assert [line.split(" (")[0] for line in lines] == ["cell 0", "cell 1"]
        assert "non-finite iterate" in lines[1]
        assert "non-finite iterate" in capsys.readouterr().err


class TestPriorDistanceCommand:
    def test_constructed_epsilon_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = recon-gaussian-prior\nsize = 32\nepsilon = 0.1\n"
            "sigma_grid = 1, 2, 5\ntest_points = 4\n",
        )
        out = tmp_path / "pd"
        assert main(["prior-distance", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "prior_distance.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            assert abs(float(line.split(",")[3]) - 0.1) <= 1e-9


class TestVerifyBoundsCommand:
    def test_linear_family_exit_zero(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = linear-theory\ninstances = 5\niters = 200\nn_max = 16\n",
        )
        out = tmp_path / "vb"
        assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.glob("bound_thm1_seed*.csv"))) == 5

    def test_corrupted_bound_negative_control(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "kind = linear-theory\ninstances = 5\niters = 200\nn_max = 16\n"
            "eps_min = 0.2\ndebug_bound_scale = 0.01\n",
        )
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "vb")]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_prox_family_small_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "kind = prox-prior-theory\ninstances = 2\niters = 300\nn_max = 12\n"
            "fstar_iters = 20000\n",
        )
        out = tmp_path / "vb"
        assert main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.glob("bound_thm2_seed*.csv"))) == 2
        assert len(list(out.glob("bound_thm4_seed*.csv"))) == 2

    def test_tau_key_exits_2_as_unknown(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "kind = prox-prior-theory\ntau = 2.0\nsigma = 1.0\n"
        )
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'tau'" in capsys.readouterr().err

    def test_kinds_are_the_table_entries(self):
        assert set(cli._VERIFY_KINDS) == set(SCHEMAS["verify-bounds"])

    def test_a_kind_is_one_table_entry_of_named_reports(self, tmp_path, capsys, monkeypatch):
        def report(name, measured):
            return BoundReport(name, iters=[0, 1], measured=[0.0, measured],
                               bounds=[1.0, 1.0]).finish()

        def fake(cfg, seed):  # "odd" fails at odd seeds
            return [("ok", report("ok", 0.5)), ("odd", report("odd", 2.0 if seed % 2 else 0.5))]

        monkeypatch.setitem(cli._VERIFY_KINDS, "fake", fake)
        assert cli.cmd_verify_bounds({"kind": "fake", "seed": 4, "instances": 3}, tmp_path) == 1
        assert sorted(path.name for path in tmp_path.glob("bound_*.csv")) == [
            f"bound_{name}_seed{seed}.csv" for name in ("odd", "ok") for seed in (4, 5, 6)
        ]
        out, err = capsys.readouterr()
        assert [line.split()[:4] for line in out.splitlines()] == [
            ["seed", f"{seed}:", word, f"{name}:"]
            for seed, words in ((4, "pass pass"), (5, "pass FAIL"), (6, "pass pass"))
            for name, word in zip(("ok", "odd"), words.split())
        ]
        assert err == "bound verification FAILED for seeds: [5]\n"

    def test_lambda_above_one_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = linear-theory\ninstances = 3\nlam_max = 1.5\n")
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "lam_max" in capsys.readouterr().err


class TestOracleCommand:
    ORACLE = "kind = oracle-1d\ndelta = 0.005\nsigma_grid = 0.5, 1\nz_points = 41\ndensity_points = 1025\n"

    def test_pass_with_report(self, tmp_path):
        cfg = write_cfg(tmp_path, self.ORACLE)
        out = tmp_path / "oracle"
        assert main(["oracle-1d", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "oracle_1d.txt").read_text()
        assert "pass" in text and "FAIL" not in text

    def test_zero_delta_trivial_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, self.ORACLE.replace("0.005", "0.0"))
        assert main(["oracle-1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_convexity_breaking_delta_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.ORACLE.replace("0.005", "3.0"))
        assert main(["oracle-1d", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "certificate" in capsys.readouterr().err


class TestConfigurationErrors:
    """A value that would crash a run, make it diverge or be silently ignored
    exits 2 and names its key, in every command (tests/test_config.py has
    the full list of such values)."""

    @pytest.mark.parametrize("command, text, key", [
        ("recon", RECON_SMALL + "tau = -1", "tau"),
        ("recon", RECON_SMALL + "epsilon = -0.1", "epsilon"),
        ("sweep", "kind = linear-theory\ntau_grid = 1\nsigma_grid = 1\nepsilon_grid = 0, -0.1",
         "epsilon_grid"),
        ("prior-distance", "kind = recon-gaussian-prior\nsigma_grid = 1\ntest_points = 0",
         "test_points"),
        ("oracle-1d", "kind = oracle-1d\ndelta = 0.005\nsigma_grid = 1\nz_points = 0",
         "z_points"),
        ("verify-bounds", "kind = prox-prior-theory\ninstances = 1\nsigma = inf", "sigma"),
    ], ids=["recon-tau", "recon-epsilon", "sweep", "prior-distance", "oracle-1d",
            "verify-bounds"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, text, key):
        cfg = write_cfg(tmp_path, text + "\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err


class TestSeedOverride:
    def test_seed_flag_lands_in_echoed_config(self, tmp_path):
        cfg = write_cfg(tmp_path, RECON_SMALL)
        out = tmp_path / "o"
        assert main(["recon", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        assert "seed = 99" in (out / "config_resolved.cfg").read_text()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sdred.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
