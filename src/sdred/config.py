"""Flat key = value run configurations with per-command schemas.

Configs are text files of ``key = value`` lines; '#' starts a comment.
Unknown keys are rejected, required keys must be present, and every command
echoes its fully resolved configuration into the output directory.
"""


class ConfigError(Exception):
    """Configuration problem: maps to exit status 2 in the CLI."""


_REQUIRED = object()


def _int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _float(text):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _str(text):
    return text


def _float_list(text):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}")
    return [_float(item) for item in items]


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text

    return convert


_COMMON = {
    "seed": (_int, 0),
    "out": (_str, ""),
}

_MISMATCH_MODE = (_choice("fixed", "hashed"), "fixed")

_RECON_BASE = {
    **_COMMON,
    "size": (_int, 128),
    "num_lines": (_int, _REQUIRED),
    "coils": (_int, 0),
    "tau": (_float, 1.0),
    "sigma": (_float, 1.0),
    "gamma": (_float, 0.0),  # 0 means: half the applicable theorem threshold
    "iters": (_int, 500),
    "tolerance": (_float, 0.0),
    "epsilon": (_float, 0.0),
    "mismatch_mode": _MISMATCH_MODE,
    "record_stride": (_int, 1),
}

_TV_KEYS = {
    "tv_weight": (_float, 0.05),
    "inner_iters": (_int, 200),
    "inner_tol": (_float, 1e-9),
}

_GAUSSIAN_KEYS = {
    "prior_variance": (_float, 1.0),
    "prior_mean": (_float, 0.0),
}

_GRIDS = {
    "tau_grid": (_float_list, _REQUIRED),
    "sigma_grid": (_float_list, _REQUIRED),
    "epsilon_grid": (_float_list, _REQUIRED),
}

_DISTANCE = {
    "epsilon": (_float, 0.1),
    "mismatch_mode": _MISMATCH_MODE,
    "sigma_grid": (_float_list, _REQUIRED),
    "test_points": (_int, 10),
    "point_scale": (_float, 1.0),
}


# Prior Lipschitz constants of the linear family: the contraction theory needs them in (0, 1).
_CONTRACTION_KEYS = ("lam", "lam_min", "lam_max")

# Least values of the counts of a verify-bounds run and of its sigma, and its
# (low, high) ranges: below them a run verifies nothing, its instance draws
# fail, or (sigma) it draws sigma in place of the value given.
_VERIFY_MINIMUMS = {
    "instances": 1, "iters": 1, "n_max": 2, "fstar_iters": 1, "eps_min": 0.0, "sigma": 0.0,
}
_VERIFY_RANGES = (("eps_min", "eps_max"), ("lam_min", "lam_max"))


def _swept(schema):
    """A sweep schema: the single tau/sigma/epsilon keys become trailing grids."""
    kept = {k: v for k, v in schema.items() if k not in ("tau", "sigma", "epsilon")}
    return {**kept, **_GRIDS}


SCHEMAS = {
    "recon": {
        "recon-tv": {**_RECON_BASE, **_TV_KEYS},
        "recon-gaussian-prior": {**_RECON_BASE, **_GAUSSIAN_KEYS},
    },
    "sweep": {
        "linear-theory": _swept({
            **_COMMON,
            "n": (_int, 8),
            "lam": (_float, 0.5),
            "iters": (_int, 3000),
        }),
        "recon-tv": _swept({**_RECON_BASE, **_TV_KEYS}),
        "recon-gaussian-prior": _swept({**_RECON_BASE, **_GAUSSIAN_KEYS}),
    },
    "verify-bounds": {
        "linear-theory": {
            **_COMMON,
            "instances": (_int, 100),
            "iters": (_int, 500),
            "n_max": (_int, 64),
            "lam_min": (_float, 0.2),
            "lam_max": (_float, 0.9),
            "eps_min": (_float, 0.0),
            "eps_max": (_float, 0.5),
            "slack": (_float, 1e-9),
            "debug_bound_scale": (_float, 1.0),
        },
        "prox-prior-theory": {
            **_COMMON,
            "instances": (_int, 50),
            "iters": (_int, 2000),
            "n_max": (_int, 64),
            "eps_min": (_float, 0.0),
            "eps_max": (_float, 0.5),
            "sigma": (_float, 0.0),  # 0 means: draw sigma per instance; tau = 1/sigma^2
            "slack": (_float, 1e-9),
            "slack_thm4": (_float, 1e-8),
            "fstar_iters": (_int, 50000),
            "debug_bound_scale": (_float, 1.0),
        },
    },
    "prior-distance": {
        "recon-tv": {**_COMMON, "size": (_int, 32), **_TV_KEYS, **_DISTANCE},
        "recon-gaussian-prior": {
            **_COMMON,
            "size": (_int, 32),
            **_GAUSSIAN_KEYS,
            "compare_variance": (_float, 0.0),  # 0: use the perturbation wrapper
            **_DISTANCE,
        },
    },
    "oracle-1d": {
        "oracle-1d": {
            **_COMMON,
            "base": (_choice("quadratic", "abs"), "quadratic"),
            "delta": (_float, _REQUIRED),
            "sigma_grid": (_float_list, _REQUIRED),
            "z_min": (_float, -5.0),
            "z_max": (_float, 5.0),
            "z_points": (_int, 201),
            "domain_min": (_float, -6.0),
            "domain_max": (_float, 6.0),
            "density_points": (_int, 4097),
        },
    },
}


def parse_pairs(text):
    """Raw key/value pairs from ``key = value`` lines; '#' starts a comment."""
    pairs = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def resolve(text, command):
    """Validate a config against the command's schema and apply defaults."""
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    pairs = parse_pairs(text)
    kind = pairs.pop("kind", None)
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    kinds = SCHEMAS[command]
    if kind not in kinds:
        raise ConfigError(
            f"kind {kind!r} is not valid for {command!r} (expected one of {sorted(kinds)})"
        )
    schema = kinds[kind]
    resolved = {"kind": kind}
    for key, value in pairs.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for {command}/{kind}")
        convert, _ = schema[key]
        try:
            resolved[key] = convert(value)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    for key, (convert, default) in schema.items():
        if key in resolved:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        resolved[key] = default
    for key in _CONTRACTION_KEYS:
        if key in resolved and not 0.0 < resolved[key] < 1.0:
            raise ConfigError(f"key {key!r}: expected a value in (0, 1), got {resolved[key]!r}")
    if command == "verify-bounds":
        for key, least in _VERIFY_MINIMUMS.items():
            value = resolved.get(key, least)
            if not value >= least:
                raise ConfigError(f"key {key!r}: expected at least {least!r}, got {value!r}")
        for low, high in _VERIFY_RANGES:
            if low in resolved and not resolved[low] <= resolved[high]:
                raise ConfigError(
                    f"key {low!r}: {resolved[low]!r} exceeds {high!r} = {resolved[high]!r}"
                )
    return resolved


def format_config(resolved):
    """Serialize a resolved config back to ``key = value`` text."""
    lines = []
    for key, value in resolved.items():
        if isinstance(value, list):
            rendered = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def load(path, command):
    with open(path) as fh:
        return resolve(fh.read(), command)
