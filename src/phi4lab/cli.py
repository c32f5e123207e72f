"""Command-line driver: one subcommand per workbench module.

Every run writes a manifest JSON (full configuration, spec hash, versions)
next to its artifacts so any result can be reproduced bit for bit, at any BLAS
thread count (MC stability through 1024 sites).  Exit codes: 0 success, 2
configuration error, 3 infeasible-size guard, 4 failed ``--check`` validation.
The library owns every size and order guard and raises InfeasibleSizeError
before the large allocation; ``options`` maps it to exit 3 and any other
ValueError to exit 2, for every subcommand.
"""

from __future__ import annotations

import csv
import functools
import json
import platform
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .lattice_propagator import (
    InfeasibleSizeError,
    LatticeSpec,
    covariance_band,
    covariance_cumulative,
    bound_report,
)
from .field_sampler import (
    sample_layer,
    assemble,
    classify_regions,
    layer_norm_profile,
    field_threshold,
)
from .feynman_graphs import (
    counterterms,
    logZ_series,
    wick_oracle,
)
from .power_counting import divergence_scan, rho, scale_sum, TreeTopology
from .effective_potential import (
    bare_potential,
    truncated_integrate,
    local_coefficients,
    field_independent_part,
    remainder_bound,
    require_flow,
)
from .stability_lab import (ExperimentConfig, _grid_size, _node_counts, estimate_Z,
                           nongaussianity)

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK = 4


_OPTIONS = {
    "--dim": click.option("--dim", type=click.IntRange(2, 3), default=2, show_default=True,
                          help="spatial dimension"),
    "--gamma": click.option("--gamma", type=float, default=2.0, show_default=True,
                            help="scale ratio > 1"),
    "--mass": click.option("--mass", type=float, default=1.0, show_default=True, help="mass m"),
    "--box": click.option("--box", type=float, default=1.0, show_default=True,
                          help="physical box side L (L*m must be a positive integer)"),
    "--cutoff": click.option("--cutoff", "cutoff", type=int, default=2, show_default=True,
                             metavar="N", help="ultraviolet cutoff index N"),
    "--lambda": click.option("--lambda", "lam", type=float, default=0.05, show_default=True,
                             help="quartic coupling in [0,1)"),
    "--order": click.option("--order", "order", type=int, default=1, show_default=True,
                            metavar="J", help="perturbative/truncation order j"),
    "--seed": click.option("--seed", type=int, default=0, show_default=True),
    "--samples": click.option("--samples", type=int, default=1000, show_default=True),
    "--out": click.option("--out", type=click.Path(file_okay=False), default="out",
                          show_default=True, help="artifact directory"),
    "--format": click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                             default="json", show_default=True),
    "--check": click.option("--check", is_flag=True, help="run built-in validation checks"),
}
_GEOMETRY = ("--dim", "--gamma", "--mass", "--box", "--cutoff")


def options(*flags):
    """Declares ``flags``, --out and --check, in ``_OPTIONS`` order, and runs
    the command under the one refusal handler: InfeasibleSizeError exits 3,
    any other ValueError exits 2, each with its message on stderr."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            try:
                return fn(**kwargs)
            except InfeasibleSizeError as exc:
                click.echo(f"infeasible: {exc}", err=True)
                sys.exit(EXIT_INFEASIBLE)
            except ValueError as exc:
                click.echo(f"configuration error: {exc}", err=True)
                sys.exit(EXIT_CONFIG)
        for flag, opt in reversed(_OPTIONS.items()):
            run = opt(run) if flag in (*flags, "--out", "--check") else run
        return run
    return decorate


def _write_manifest(out: Path, command: str, spec: LatticeSpec | None, params: dict):
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "params": params,
        "versions": {"phi4lab": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    if spec is not None:
        manifest["spec"] = {"d": spec.d, "L": spec.L, "m": spec.m,
                            "gamma": spec.gamma, "N": spec.N, "hash": spec.canonical_hash()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _dump_table(out: Path, name: str, rows: list, header: list, fmt: str):
    if fmt == "csv":
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        (out / f"{name}.json").write_text(json.dumps(payload, indent=2))


def _dump_json(out: Path, name: str, obj):
    (out / f"{name}.json").write_text(json.dumps(obj, indent=2, sort_keys=True))


def _fail_check(msg: str):
    click.echo(f"check failed: {msg}", err=True)
    sys.exit(EXIT_CHECK)


@click.group()
@click.version_option(version=__version__)
def main():
    """Workbench for the regularized phi^4 field in dimensions 2 and 3."""


@main.command()
@options(*_GEOMETRY, "--format")
def propagator(dim, gamma, mass, box, cutoff, out, fmt, check):
    """Propagator kernels, band decomposition and decay-bound fits."""
    spec = LatticeSpec(d=dim, L=box, m=mass, gamma=gamma, N=cutoff)
    out = Path(out)
    _write_manifest(out, "propagator", spec, {})
    cum = covariance_cumulative(spec, spec.N)
    total = np.zeros(spec.shape)
    rows = []
    for h in range(1, spec.N + 1):
        band = covariance_band(spec, h)
        total = total + band.values
        rep = bound_report(band)
        rows.append([h, float(band.at_zero), rep.decay_rate, rep.hoelder_eps])
    resid = float(np.max(np.abs(total - cum.values)))
    scale = float(np.max(np.abs(cum.values)))
    _dump_table(out, "bands", rows,
                ["scale", "value_at_zero", "decay_rate", "hoelder_exponent"], fmt)
    dists = cum.displacement_distances()
    _dump_table(out, "kernel",
                list(zip(dists.ravel().tolist(), cum.values.ravel().tolist())),
                ["distance", "value"], fmt)
    _dump_json(out, "telescoping", {"residual": resid, "relative": resid / scale})
    click.echo(f"telescoping residual {resid:.3e} (relative {resid / scale:.3e})")
    if check and resid / scale >= 1e-12:
        _fail_check("band decomposition does not telescope to 1e-12")


@main.command()
@options(*_GEOMETRY, "--lambda", "--seed", "--format")
def sample(dim, gamma, mass, box, cutoff, lam, seed, out, fmt, check):
    """Draw multiscale Gaussian layers; report norms and large-field regions."""
    spec = LatticeSpec(d=dim, L=box, m=mass, gamma=gamma, N=cutoff)
    out = Path(out)
    _write_manifest(out, "sample", spec, {"lambda": lam, "seed": seed})
    layers = [sample_layer(spec, h, seed) for h in range(1, spec.N + 1)]
    field = assemble(layers)
    B = field_threshold(max(lam, 1e-12))
    rows = []
    region_dump = {}
    for h in range(1, spec.N + 1):
        _, norms = layer_norm_profile(layers[h - 1])
        regions = classify_regions(field, h, B)
        rows.append([h, float(np.max(np.abs(layers[h - 1].values))),
                     float(max(norms))])
        region_dump[str(h)] = {"D1": len(regions.D1), "D2": len(regions.D2),
                               "R": len(regions.R), "chi_B": regions.chi_B}
    _dump_table(out, "layers", rows, ["scale", "sup_norm", "max_cube_norm"], fmt)
    _dump_json(out, "regions", {"B": B, "scales": region_dump})
    small = all(v["chi_B"] == 1 for v in region_dump.values())
    click.echo(f"sampled {spec.N} layers on {spec.n_sites} sites, "
               f"small-field: {small}")
    if check:
        again = assemble([sample_layer(spec, h, seed) for h in range(1, spec.N + 1)])
        if not np.array_equal(field.phi(), again.phi()):
            _fail_check("resampling with the same seed is not bit-identical")


@main.command()
@options(*_GEOMETRY, "--lambda", "--order", "--format")
def graphs(dim, gamma, mass, box, cutoff, lam, order, out, fmt, check):
    """Renormalized graph series, counterterm polynomials, oracle checks."""
    spec = LatticeSpec(d=dim, L=box, m=mass, gamma=gamma, N=cutoff)
    out = Path(out)
    _write_manifest(out, "graphs", spec, {"lambda": lam, "order": order})
    cts = counterterms(spec, max(lam, 1e-12), nu_order=order)
    series = logZ_series(spec, lam, None, order, cts=cts)
    _dump_json(out, "counterterms", {
        "mu_poly": cts.mu_poly.tolist(),
        "nu_poly": cts.nu_poly.tolist(),
        "mu": cts.mu, "nu": cts.nu,
    })
    _dump_table(out, "series",
                [[k, c] for k, c in enumerate(series.coefficients)],
                ["lambda_order", "coefficient"], fmt)
    click.echo(f"log Z density coefficients: {series.coefficients.tolist()}")
    if check:
        kernel = covariance_cumulative(spec, spec.N)
        direct = wick_oracle([0, 0, 0, 0], kernel)
        if abs(direct - 3 * kernel.at_zero ** 2) > 1e-10 * abs(direct):
            _fail_check("Isserlis oracle disagrees with 3 C(0)^2")
        if np.max(np.abs(series.coefficients)) > 1e-8:
            _fail_check("renormalized vacuum series does not cancel")


@main.command()
@options("--dim")
def powercount(dim, out, check):
    """Divergence catalog and scale-sum verdicts for cluster topologies."""
    out = Path(out)
    _write_manifest(out, "powercount", None, {"dim": dim})
    entries = divergence_scan(dim)
    _dump_json(out, "catalog", entries)
    chain = rho(2, 0, 2, 3)
    verdict = scale_sum(TreeTopology(n=2, r=0, n_e=0), d=2, gamma=2.0)
    _dump_json(out, "verdicts", {
        "chain_rho": chain[0], "chain_rho_bar": chain[1],
        "single_node_limit": verdict.limit,
        "single_node_finite": verdict.finite_sums,
    })
    click.echo(json.dumps(entries, indent=2))
    if check:
        if not (chain[0] == 0.0 and chain[1] == 0.5):
            _fail_check("chain cluster exponents are not (0, 1/2)")
        if abs(verdict.limit - 1.0 / 3.0) > 1e-12:
            _fail_check("single-node geometric sum is not 1/3")


@main.command()
@options(*_GEOMETRY, "--lambda", "--order")
def rgflow(dim, gamma, mass, box, cutoff, lam, order, out, check):
    """Iterate the truncated effective-potential recursion, dump per-scale state."""
    spec = LatticeSpec(d=dim, L=box, m=mass, gamma=gamma, N=cutoff)
    out = Path(out)
    _write_manifest(out, "rgflow", spec, {"lambda": lam, "order": order})
    require_flow(spec, order)
    lam_eff = max(lam, 1e-12)
    cts = counterterms(spec, lam_eff, nu_order=order)
    V = bare_potential(spec, None, cts, lam_eff, jmax=order)
    dump = []
    B = field_threshold(lam_eff)
    for h in range(spec.N, 0, -1):
        E = field_independent_part(spec, order, h, lam_eff, None, cts, per_order=True)
        dump.append({
            "scale": h,
            "terms": {f"{o},{k}": norm for (o, k), norm in V.kernel_norms().items()},
            "relevant": local_coefficients(V, lam_eff),
            "E_per_order": np.asarray(E).tolist(),
            "remainder": remainder_bound(order, h, lam_eff, B, spec.d,
                                         gamma=spec.gamma).value,
        })
        V = truncated_integrate(V, order)
    final = V.constant_coefficients(order) / (spec.n_sites * spec.a ** spec.d)
    dump.append({"scale": 0, "constant_per_order": final.tolist()})
    _dump_json(out, "flow", dump)
    click.echo(f"flow constant per order: {final.tolist()}")
    if check:
        E0 = np.asarray(field_independent_part(spec, order, 0, lam_eff, None, cts,
                                               per_order=True))
        if np.max(np.abs(final - E0)) > 1e-8 * max(1.0, np.max(np.abs(E0))):
            _fail_check("iterated constant does not match the difference-kernel series")


@main.command()
@options(*_GEOMETRY, "--lambda", "--order", "--seed", "--samples")
def stability(dim, gamma, mass, box, cutoff, lam, order, seed, samples, out, check):
    """Estimate log(Z(f)/Z(0)), compare with the series inside the envelope."""
    spec = LatticeSpec(d=dim, L=box, m=mass, gamma=gamma, N=cutoff)
    out = Path(out)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    f = tuple(rng.uniform(-0.5, 0.5, spec.n_sites))
    cfg = ExperimentConfig(spec=spec, lam=lam, f=f, j=order, seed=seed, n_samples=samples)
    params = {"lambda": lam, "order": order, "seed": seed, "method": cfg.method}
    if cfg.method == "MC":
        params["samples"] = cfg.n_samples
    else:
        counts = _node_counts(spec, cfg.gh_nodes)  # per mode, in ascending mode weight
        params.update(node_counts=list(counts), quadrature_nodes=_grid_size(counts))
    _write_manifest(out, "stability", spec, params)
    report = estimate_Z(cfg)
    kappa = nongaussianity(cfg) if cfg.method == "exact-quadrature" else None
    payload = {
        "method": cfg.method,
        "value": report.value, "error": report.error,
        "series_value": report.series_value,
        "envelope": report.envelope, "inside": bool(report.inside),
        "fourth_cumulant": kappa,
    }
    _dump_json(out, "stability", payload)
    click.echo(f"value {report.value:.8f} series {report.series_value:.8f} "
               f"envelope {report.envelope:.3e} inside {report.inside}")
    if check:
        if lam == 0.0 and abs(report.value - report.series_value) >= 1e-10:
            _fail_check("Gaussian control case deviates from the exact value")
        if not report.inside:
            _fail_check("estimate falls outside the remainder envelope")


if __name__ == "__main__":
    main()
