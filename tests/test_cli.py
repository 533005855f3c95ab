import numpy as np
import pytest

from sdred.cli import main
from sdred.io import read_tensor, read_trace_csv


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

    def test_zero_epsilon_runs_identical_regardless_of_mode(self, tmp_path):
        cfg_a = write_cfg(tmp_path, RECON_SMALL + "epsilon = 0\nmismatch_mode = fixed\n", "a.cfg")
        cfg_b = write_cfg(tmp_path, RECON_SMALL + "epsilon = 0\nmismatch_mode = hashed\n", "b.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["recon", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["recon", "--config", cfg_b, "--out", str(out_b)]) == 0
        assert np.array_equal(read_tensor(out_a / "final.mrt"), read_tensor(out_b / "final.mrt"))
        ta = read_trace_csv(out_a / "trace.csv")
        tb = read_trace_csv(out_b / "trace.csv")
        assert ta == tb

    def test_coil_recon_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, RECON_SMALL + "coils = 3\n")
        assert main(["recon", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_out_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RECON_SMALL)
        assert main(["recon", "--config", cfg]) == 2
        assert "out" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["recon", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


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
    def test_failed_cells_are_listed_and_set_the_exit_status(self, tmp_path, capsys):
        grid = "num_lines = 10\nsize = 32\niters = 400\nsigma_grid = 1\nepsilon_grid = 0\n"
        bad_tau = write_cfg(tmp_path, "kind = recon-gaussian-prior\ntau_grid = -1, 1\n" + grid,
                            "bad.cfg")
        out = tmp_path / "bad"
        assert main(["sweep", "--config", bad_tau, "--out", str(out)]) == 1
        assert (out / "failures.txt").read_text().startswith("cell 0 (tau=-1.0,")
        assert len((out / "summary.csv").read_text().strip().splitlines()) == 2
        # A step far past both theorem ranges overflows the iterate: exit 3
        # even though another cell failed first for a different reason.
        diverging = write_cfg(
            tmp_path, "kind = recon-gaussian-prior\ngamma = 1000\ntau_grid = -1, 1\n" + grid,
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

    def test_inconsistent_coupling_exits_2(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "kind = prox-prior-theory\ntau = 2.0\nsigma = 1.0\n"
        )
        assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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


class TestSeedOverride:
    def test_seed_flag_lands_in_echoed_config(self, tmp_path):
        cfg = write_cfg(tmp_path, RECON_SMALL)
        out = tmp_path / "o"
        assert main(["recon", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        assert "seed = 99" in (out / "config_resolved.cfg").read_text()
