"""Batch entry points: reconstruction runs, parameter sweeps, prior-distance
studies, theorem-bound verification, and the 1-D density oracle.

Every command takes ``--config`` (a ``key = value`` file), an output
directory (``--out`` or the config's ``out`` key), and an optional ``--seed``
override; the fully resolved configuration is echoed next to the artifacts.
Exit statuses: 0 success, 1 verification failure, 2 configuration error,
3 numerical divergence, 4 internal error.  A sweep whose cells fail exits 3
if any cell diverged and 4 otherwise, since a sweep verifies nothing.
"""

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import ConfigError
from .families import (
    make_linear_contraction_instance,
    make_linear_sweep_base,
    make_linear_sweep_cell,
    make_prox_l1_instance,
    prox_gradient_reference,
)
from .io import (
    write_bound_report_csv,
    write_mask,
    write_mismatch_csv,
    write_tensor,
    write_trace_csv,
)
from .metrics import make_phantom, psnr, ssim
from .objectives import AnisotropicTV, DataFidelity
from .operators import gaussian_coil_maps, make_coil_operator, make_fourier_subsampling, make_radial_mask
from .priors import (
    ConvexityError,
    GaussianMapPrior,
    LogConcaveDensity1D,
    ProximalPrior,
    estimate_mismatch_epsilon,
    perturb_prior,
    verify_theorem3_1d,
)
from .solver import DivergenceError, Problem, SolverConfig, default_gamma, reference_zero, run_sd_red
from .theory import verify_theorem1_trace, verify_theorem2_trace, verify_theorem4_trace

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DIVERGE = 3
EXIT_ERROR = 4


def _prepare_out(cfg, out_override):
    out = out_override or cfg.get("out") or ""
    if not out:
        raise ConfigError("missing required key 'out' (set it in the config or pass --out)")
    cfg["out"] = out
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.cfg").write_text(config_mod.format_config(cfg))
    return out_dir


def _prior(cfg):
    """The true prior of a TV or Gaussian config, and its TV objective (None for Gaussian)."""
    if cfg["kind"] == "recon-tv":
        reg = AnisotropicTV(cfg["tv_weight"], cfg["inner_iters"], cfg["inner_tol"])
        return ProximalPrior(reg), reg
    return GaussianMapPrior(cfg["prior_mean"], cfg["prior_variance"]), None


def _perturbed(prior, cfg):
    return perturb_prior(
        prior, cfg["epsilon"], mode=cfg["mismatch_mode"], direction_seed=cfg["seed"]
    )


def _g_ratio(trace):
    """Final over initial squared true-prior residual norm (0 when the run starts at a zero)."""
    return trace.g_norm_sq[-1] / trace.g_norm_sq[0] if trace.g_norm_sq[0] > 0 else 0.0


def _build_recon(cfg):
    size = cfg["size"]
    phantom = make_phantom(size)
    mask = make_radial_mask(size, size, cfg["num_lines"])
    if cfg["coils"] > 0:
        sens = gaussian_coil_maps((size, size), cfg["coils"])
        op = make_coil_operator(mask, sens)
    else:
        op = make_fourier_subsampling(mask)
    y = op.forward(phantom)
    fid = DataFidelity(op, y)
    prior, objective = _prior(cfg)
    mismatched = _perturbed(prior, cfg) if cfg["epsilon"] > 0 else None
    problem = Problem(
        fidelity=fid, prior=prior, tau=cfg["tau"], sigma=cfg["sigma"], mismatched=mismatched
    )
    gamma = cfg["gamma"]
    if gamma == 0.0:
        gamma = default_gamma(prior.lipschitz(cfg["sigma"]), fid.lipschitz, cfg["tau"])
    solver_cfg = SolverConfig(
        gamma=gamma,
        max_iters=cfg["iters"],
        tol=cfg["tolerance"],
        ground_truth=phantom,
        objective=objective,
        record_stride=cfg["record_stride"],
    )
    return problem, solver_cfg, mask


def cmd_recon(cfg, out_dir):
    problem, solver_cfg, mask = _build_recon(cfg)
    trace = run_sd_red(problem, solver_cfg)

    write_trace_csv(out_dir / "trace.csv", trace)
    write_tensor(out_dir / "final.mrt", trace.final)
    write_mask(out_dir / "mask.mrm", mask)
    phantom = solver_cfg.ground_truth
    adjoint = problem.fidelity.adjoint_image()
    peak = float(phantom.max())
    final_psnr = psnr(phantom, trace.final, peak=peak)
    final_ssim = ssim(phantom, trace.final, peak=peak)
    summary = (
        f"iters={trace.stopped_at} psnr={final_psnr:.4f} ssim={final_ssim:.6f} "
        f"adjoint_psnr={psnr(phantom, adjoint, peak=peak):.4f} "
        f"g_ratio={_g_ratio(trace):.6e} mask_ratio={mask.sampling_ratio:.4f} "
        f"gamma={solver_cfg.gamma:.6e}"
    )
    (out_dir / "summary.txt").write_text(summary + "\n")
    print(summary)
    return EXIT_OK


def _sweep_cells(cfg):
    return [
        (tau, sigma, eps)
        for tau in cfg["tau_grid"]
        for sigma in cfg["sigma_grid"]
        for eps in cfg["epsilon_grid"]
    ]


def _run_sweep_cell_linear(base, cfg, cell):
    tau, sigma, eps = cell
    problem, solver_cfg = make_linear_sweep_cell(
        base, tau=tau, sigma=sigma, epsilon=eps, t=cfg["iters"]
    )
    return run_sd_red(problem, solver_cfg)


def _run_sweep_cell_recon(cfg, cell):
    tau, sigma, eps = cell
    cell_cfg = dict(cfg)
    cell_cfg.update(tau=tau, sigma=sigma, epsilon=eps)
    problem, solver_cfg, _ = _build_recon(cell_cfg)
    max_iters = max(20000, 10 * cfg["iters"])
    x_ref = reference_zero(problem, gamma=solver_cfg.gamma, max_iters=max_iters)
    return run_sd_red(problem, replace(solver_cfg, x_ref=x_ref))


def cmd_sweep(cfg, out_dir):
    cells = _sweep_cells(cfg)
    if not cells:
        raise ConfigError("sweep grids must be nonempty")
    if cfg["kind"] == "linear-theory":
        base = make_linear_sweep_base(cfg["seed"], cfg["n"], cfg["lam"])
        runner = lambda cell: _run_sweep_cell_linear(base, cfg, cell)
    else:
        runner = lambda cell: _run_sweep_cell_recon(cfg, cell)

    results = [None] * len(cells)
    failures = []
    for index, cell in enumerate(cells):
        try:
            results[index] = runner(cell)
        except Exception as exc:  # recorded per cell, surfaced in the exit code
            failures.append((index, exc))

    rows = []
    for index, (cell, trace) in enumerate(zip(cells, results)):
        tau, sigma, eps = cell
        if trace is None:
            continue
        name = f"trace_{index:03d}_tau{tau:g}_sigma{sigma:g}_eps{eps:g}.csv"
        write_trace_csv(out_dir / name, trace)
        rows.append((tau, sigma, eps, _g_ratio(trace), trace.dist_to_ref[-1]))

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("tau", "sigma", "epsilon", "final_g_norm_sq_ratio", "final_dist_to_ref"))
        for tau, sigma, eps, ratio, dist in rows:
            writer.writerow([repr(tau), repr(sigma), repr(eps), repr(ratio),
                             "" if dist is None else repr(dist)])

    if failures:
        lines = []
        for index, exc in failures:
            tau, sigma, eps = cells[index]
            lines.append(f"cell {index} (tau={tau}, sigma={sigma}, eps={eps}): {exc}")
        (out_dir / "failures.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines), file=sys.stderr)
        if any(isinstance(exc, DivergenceError) for _, exc in failures):
            return EXIT_DIVERGE
        return EXIT_ERROR  # a sweep has no verdict of its own
    print(f"sweep complete: {len(rows)} cells -> {out_dir / 'summary.csv'}")
    return EXIT_OK


def cmd_prior_distance(cfg, out_dir):
    base, _ = _prior(cfg)
    if cfg.get("compare_variance", 0.0) > 0:
        other = GaussianMapPrior(cfg["prior_mean"], cfg["compare_variance"])
    else:
        other = _perturbed(base, cfg)
    shape = (cfg["size"], cfg["size"])
    rng = np.random.default_rng(cfg["seed"])
    points = [cfg["point_scale"] * rng.standard_normal(shape) for _ in range(cfg["test_points"])]
    rows = estimate_mismatch_epsilon(base, other, points, cfg["sigma_grid"])
    write_mismatch_csv(out_dir / "prior_distance.csv", rows)
    for row in rows:
        print(
            f"sigma={row.sigma:g} mean_dist={row.mean_dist:.6e} "
            f"max_dist={row.max_dist:.6e} epsilon_hat={row.epsilon_hat:.6e}"
        )
    return EXIT_OK


def _solve(cfg, inst):
    """An instance's trace, and the keywords every bound check of it takes."""
    c = inst.constants
    keywords = dict(L=c["L"], tau=c["tau"], gamma=c["gamma"], sigma=c["sigma"],
                    epsilon=c["epsilon"], bound_scale=cfg["debug_bound_scale"])
    return run_sd_red(inst.problem, inst.config), keywords


def _verify_linear(cfg, seed):
    inst = make_linear_contraction_instance(
        seed, n_max=cfg["n_max"], lam_range=(cfg["lam_min"], cfg["lam_max"]),
        eps_range=(cfg["eps_min"], cfg["eps_max"]), t=cfg["iters"],
    )
    trace, keywords = _solve(cfg, inst)
    lam = inst.constants["lambda"]
    return [("thm1", verify_theorem1_trace(trace, lam=lam, slack=cfg["slack"], **keywords))]


def _verify_prox(cfg, seed):
    inst = make_prox_l1_instance(
        seed, n_max=cfg["n_max"], eps_range=(cfg["eps_min"], cfg["eps_max"]),
        t=cfg["iters"], sigma_fixed=cfg["sigma"] if cfg["sigma"] > 0 else None,
    )
    trace, keywords = _solve(cfg, inst)
    _, f_star = prox_gradient_reference(
        inst.problem.fidelity, inst.problem.prior.reg, max_iters=cfg["fstar_iters"]
    )
    S = inst.constants["S"]
    return [
        ("thm2", verify_theorem2_trace(trace, slack=cfg["slack"], **keywords)),
        ("thm4", verify_theorem4_trace(trace, f_star, S=S, slack=cfg["slack_thm4"], **keywords)),
    ]


# A verify-bounds kind maps (cfg, instance seed) to the instance's named
# bound reports; each is written to bound_<name>_seed<s>.csv.
_VERIFY_KINDS = {"linear-theory": _verify_linear, "prox-prior-theory": _verify_prox}


def cmd_verify_bounds(cfg, out_dir):
    verify = _VERIFY_KINDS[cfg["kind"]]
    failing_seeds = []
    for seed in range(cfg["seed"], cfg["seed"] + cfg["instances"]):
        reports = verify(cfg, seed)
        for name, report in reports:
            write_bound_report_csv(out_dir / f"bound_{name}_seed{seed}.csv", report)
            print(f"seed {seed}: {report.summary()}")
        if not all(report.passed for _, report in reports):
            failing_seeds.append(seed)
    if failing_seeds:
        print(f"bound verification FAILED for seeds: {failing_seeds}", file=sys.stderr)
        return EXIT_VERIFY
    print("all bound verifications passed")
    return EXIT_OK


_ORACLE_BASES = {
    "quadratic": lambda x: x * x,
    "abs": lambda x: abs(x),
}


def cmd_oracle_1d(cfg, out_dir):
    base = _ORACLE_BASES[cfg["base"]]
    delta = cfg["delta"]
    domain = (cfg["domain_min"], cfg["domain_max"])
    density = LogConcaveDensity1D(base, domain, cfg["density_points"])
    density_hat = LogConcaveDensity1D(
        lambda x: base(x) + delta * math.cos(x), domain, cfg["density_points"]
    )
    zgrid = np.linspace(cfg["z_min"], cfg["z_max"], cfg["z_points"])
    lines = []
    all_passed = True
    for sigma in cfg["sigma_grid"]:
        report = verify_theorem3_1d(density, density_hat, sigma, zgrid)
        margin = report.bound - report.max_distance
        lines.append(
            f"sigma={sigma:g} log_gap={report.log_gap:.6e} epsilon={report.epsilon:.6e} "
            f"max_dist={report.max_distance:.6e} bound={report.bound:.6e} "
            f"margin={margin:.6e} worst_z={report.worst_z:g} "
            f"{'pass' if report.passed else 'FAIL'}"
        )
        all_passed = all_passed and report.passed
    text = "\n".join(lines)
    (out_dir / "oracle_1d.txt").write_text(text + "\n")
    print(text)
    return EXIT_OK if all_passed else EXIT_VERIFY


_COMMANDS = {
    "recon": cmd_recon,
    "sweep": cmd_sweep,
    "prior-distance": cmd_prior_distance,
    "verify-bounds": cmd_verify_bounds,
    "oracle-1d": cmd_oracle_1d,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="sdred", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--out", default=None, help="output directory (overrides the config)")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_mod.load(args.config, args.command)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg["seed"] = args.seed
        out_dir = _prepare_out(cfg, args.out)
        return _COMMANDS[args.command](cfg, out_dir)
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ConvexityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGE
    except Exception as exc:  # a crash, not a verdict: exit 1 is the commands' own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
