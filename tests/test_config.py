import sys
from pathlib import Path

import pytest

from sdred.config import _REQUIRED, SCHEMAS, ConfigError, format_config, load, parse_pairs, resolve

ROOT = Path(__file__).resolve().parents[1]


RECON_TV = """
kind = recon-tv
num_lines = 32   # about 25% sampling at 128
size = 64
tv_weight = 0.01
"""


class TestParsing:
    def test_comments_and_blank_lines(self):
        pairs = parse_pairs("# full comment\n\nkey = 1  # trailing\n")
        assert pairs == {"key": "1"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_pairs("just some text")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_pairs("a = 1\na = 2\n")


# A valid config of each command, and the command.
BASES = {
    "recon": ("recon", RECON_TV),
    "sweep": ("sweep", "kind = linear-theory\ntau_grid = 1\nsigma_grid = 1\nepsilon_grid = 0\n"),
    "prior-distance": ("prior-distance", "kind = recon-gaussian-prior\nsigma_grid = 1\n"),
    "oracle-1d": ("oracle-1d", "kind = oracle-1d\ndelta = 0.005\nsigma_grid = 1\n"),
    "verify-linear": ("verify-bounds", "kind = linear-theory\n"),
    "verify-prox": ("verify-bounds", "kind = prox-prior-theory\n"),
}


def with_lines(text, lines):
    """``text`` with ``lines`` in place of the lines that set the same keys."""
    new = lines.splitlines()
    keys = {line.split("=")[0].strip() for line in new}
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + new) + "\n"


class TestResolve:
    def test_defaults_applied(self):
        cfg = resolve(RECON_TV, "recon")
        assert cfg["kind"] == "recon-tv"
        assert cfg["size"] == 64
        assert cfg["tau"] == 1.0
        assert cfg["inner_iters"] == 200
        assert cfg["seed"] == 0

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="banana"):
            resolve(RECON_TV + "banana = 1\n", "recon")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="num_lines"):
            resolve("kind = recon-tv\n", "recon")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            resolve("size = 64\n", "recon")

    def test_kind_command_mismatch(self):
        with pytest.raises(ConfigError, match="not valid"):
            resolve("kind = oracle-1d\ndelta = 0.01\nsigma_grid = 1\n", "recon")

    def test_float_list_parsing(self):
        text = "kind = oracle-1d\ndelta = 0.005\nsigma_grid = 0.5, 1, 2\n"
        cfg = resolve(text, "oracle-1d")
        assert cfg["sigma_grid"] == [0.5, 1.0, 2.0]

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="num_lines"):
            resolve("kind = recon-tv\nnum_lines = many\n", "recon")

    def test_prox_theory_tau_key_rejected_as_unknown(self):
        # tau = 1/sigma^2 follows from sigma, so sigma is the one key for both.
        text = "kind = prox-prior-theory\ntau = 4.0\nsigma = 0.5\n"
        with pytest.raises(ConfigError, match="unknown key 'tau'"):
            resolve(text, "verify-bounds")

    def test_mismatch_mode_choice(self):
        with pytest.raises(ConfigError, match="fixed"):
            resolve(RECON_TV + "mismatch_mode = diagonal\n", "recon")
        with pytest.raises(ConfigError, match="'mismatch_mode'"):
            resolve(RECON_TV + "mismatch_mode = hashed\n", "recon")

    @pytest.mark.parametrize(
        "text, command, key",
        [
            ("kind = linear-theory\nlam_min = 0\n", "verify-bounds", "lam_min"),
            ("kind = linear-theory\nlam_max = 1.5\n", "verify-bounds", "lam_max"),
            (
                "kind = linear-theory\nlam = 1.0\ntau_grid = 1\nsigma_grid = 1\nepsilon_grid = 0\n",
                "sweep",
                "lam",
            ),
        ],
        ids=["lam_min", "lam_max", "sweep_lam"],
    )
    def test_lambda_outside_unit_interval_names_key(self, text, command, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            resolve(text, command)


    @pytest.mark.parametrize("base, line", [
        ("verify-linear", "instances = 0"),
        ("verify-prox", "instances = -3"),
        ("verify-prox", "fstar_iters = 0"),
        ("verify-linear", "n_max = 1"),
        ("verify-prox", "iters = 0"),
        ("verify-prox", "eps_min = 0.6"),
        ("verify-linear", "eps_min = -0.1"),
        ("verify-linear", "lam_min = 0.8\nlam_max = 0.3"),
        ("verify-prox", "sigma = -1"),
        ("verify-prox", "sigma = nan"),
        ("verify-prox", "sigma = inf"),
        ("verify-prox", "slack = inf"),
        ("recon", "tau = -1"),
        ("recon", "tau = inf"),
        ("recon", "tau = 0"),
        ("recon", "gamma = -1"),
        ("recon", "iters = 0"),
        ("recon", "record_stride = 0"),
        ("recon", "tolerance = -1"),
        ("recon", "num_lines = 0"),
        ("recon", "size = 16"),
        ("recon", "tv_weight = 0"),
        ("recon", "inner_iters = 0"),
        ("recon", "sigma = nan"),
        ("recon", "sigma = 0"),
        ("recon", "epsilon = -0.1"),
        ("recon", "seed = -1"),
        ("recon", "seed = -1" + "0" * 400),
        ("sweep", "epsilon_grid = 0, -0.1"),
        ("sweep", "tau_grid = 1, -2"),
        ("sweep", "sigma_grid = 1, nan"),
        ("sweep", "n = 0"),
        ("prior-distance", "epsilon = -0.1"),
        ("prior-distance", "test_points = 0"),
        ("prior-distance", "prior_mean = inf"),
        ("oracle-1d", "z_points = 0"),
        ("oracle-1d", "delta = nan"),
    ])
    def test_out_of_range_values_name_key(self, base, line):
        command, text = BASES[base]
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"'{key}'"):
            resolve(with_lines(text, line), command)

    @pytest.mark.parametrize("base, line, value", [
        ("recon", "gamma = 0", 0.0), ("recon", "epsilon = 0", 0.0),
        ("verify-prox", "sigma = 0", 0.0), ("prior-distance", "size = 1", 1),
        ("sweep", "epsilon_grid = 0, 0.1", [0.0, 0.1]),
        ("recon", "seed = 1" + "0" * 400, 10 ** 400),
    ])
    def test_least_values_accepted(self, base, line, value):
        # At 0, gamma, epsilon and verify-bounds sigma have meanings of their
        # own.  An int beyond the float range is finite, so only its least
        # value bounds it.
        command, text = BASES[base]
        key = line.split("=")[0].strip()
        assert resolve(with_lines(text, line), command)[key] == value

    def test_verify_single_point_ranges_accepted(self):
        text = "kind = linear-theory\ninstances = 1\nn_max = 2\nlam_min = 0.5\nlam_max = 0.5\n"
        cfg = resolve(text + "eps_min = 0.2\neps_max = 0.2\n", "verify-bounds")
        assert (cfg["instances"], cfg["eps_min"], cfg["lam_max"]) == (1, 0.2, 0.5)


# The command each shipped config is written for.
SHIPPED = {
    "oracle_1d.cfg": "oracle-1d", "prior_distance.cfg": "prior-distance",
    "recon_tv.cfg": "recon", "recon_tv_mismatched.cfg": "recon", "sweep_linear.cfg": "sweep",
    "verify_linear.cfg": "verify-bounds", "verify_prox.cfg": "verify-bounds",
}


class TestShippedConfigs:
    def test_every_shipped_config_resolves(self):
        assert sorted(path.name for path in (ROOT / "configs").glob("*.cfg")) == sorted(SHIPPED)
        for name, command in SHIPPED.items():
            load(ROOT / "configs" / name, command)

    def test_every_benchmark_workload_config_resolves(self):
        # The benchmark writes each call's config from its workload table.
        if str(ROOT / "perfbench") not in sys.path:
            sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        assert workloads.WORKLOADS
        for workload in workloads.WORKLOADS.values():
            for index in range(2):
                seed = workload.call_seed(7, index)
                assert resolve(workload.config_text(seed), workload.command)["seed"] == seed


class TestEcho:
    def test_format_roundtrips_through_parse(self):
        cfg = resolve(RECON_TV, "recon")
        text = format_config(cfg)
        again = resolve(text, "recon")
        assert again == cfg

    def test_lists_roundtrip(self):
        text = "kind = oracle-1d\ndelta = 0.005\nsigma_grid = 0.5, 1, 2\n"
        cfg = resolve(text, "oracle-1d")
        assert resolve(format_config(cfg), "oracle-1d") == cfg


REQ = "required"
_RECON_HEAD = [
    ("seed", 0), ("out", ""), ("size", 128), ("num_lines", REQ), ("coils", 0),
    ("gamma", 0.0), ("iters", 500), ("tolerance", 0.0), ("mismatch_mode", "fixed"),
    ("record_stride", 1),
]
_GRID_TAIL = [("tau_grid", REQ), ("sigma_grid", REQ), ("epsilon_grid", REQ)]
_DISTANCE_TAIL = [
    ("epsilon", 0.1), ("mismatch_mode", "fixed"), ("sigma_grid", REQ),
    ("test_points", 10), ("point_scale", 1.0),
]

# Key order and defaults of the composed schemas, as written out by hand
# before they were composed; the order is the order of config_resolved.cfg.
COMPOSED_SCHEMAS = {
    ("sweep", "linear-theory"): [
        ("seed", 0), ("out", ""), ("n", 8), ("lam", 0.5), ("iters", 3000),
    ] + _GRID_TAIL,
    ("sweep", "recon-tv"): _RECON_HEAD + [
        ("tv_weight", 0.05), ("inner_iters", 200), ("inner_tol", 1e-09),
    ] + _GRID_TAIL,
    ("sweep", "recon-gaussian-prior"): _RECON_HEAD + [
        ("prior_variance", 1.0), ("prior_mean", 0.0),
    ] + _GRID_TAIL,
    ("prior-distance", "recon-tv"): [
        ("seed", 0), ("out", ""), ("size", 32),
        ("tv_weight", 0.05), ("inner_iters", 200), ("inner_tol", 1e-09),
    ] + _DISTANCE_TAIL,
    ("prior-distance", "recon-gaussian-prior"): [
        ("seed", 0), ("out", ""), ("size", 32),
        ("prior_variance", 1.0), ("prior_mean", 0.0), ("compare_variance", 0.0),
    ] + _DISTANCE_TAIL,
}


class TestComposedSchemas:
    @pytest.mark.parametrize("command, kind", sorted(COMPOSED_SCHEMAS))
    def test_key_order_and_defaults(self, command, kind):
        schema = SCHEMAS[command][kind]
        got = [(key, REQ if default is _REQUIRED else default)
               for key, (_, default) in schema.items()]
        assert got == COMPOSED_SCHEMAS[(command, kind)]
