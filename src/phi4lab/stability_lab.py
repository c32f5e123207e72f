"""Desk-scale stability experiments on the interacting measure.

Estimates log(Z(f)/Z(0)) either by exact Gauss-Hermite quadrature over the
diagonalized covariance or by Monte Carlo with shared randomness between
numerator and denominator.  Quadrature is the sampling-free ground truth on
one dense tensor grid of gh_nodes ** n_sites nodes, feasible while that count
is at most QUADRATURE_NODE_CAP = 32^4 and refused beyond it with
InfeasibleSizeError (CLI exit 3) before any array is built.  The grid's
weights and per-node sums of phi^2 and phi^4, which depend on neither lambda
nor f, are built once per (spec, gh_nodes) and kept for the last four grids;
a call adds lambda, the counterterms and the source term f . phi in O(nodes).
Fields are laid out site-major, (sites, nodes or samples), on both paths.
Compares the estimates with the truncated series inside a remainder envelope
and measures the non-Gaussian fourth cumulant of the source-coupled field."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice_propagator import InfeasibleSizeError, LatticeSpec, covariance_cumulative
from .feynman_graphs import Counterterms, counterterms, logZ_series
from .effective_potential import remainder_bound
from .field_sampler import field_threshold

__all__ = [
    "ExperimentConfig",
    "StabilityReport",
    "estimate_Z",
    "stability_envelope",
    "nongaussianity",
    "calibrate_Cj",
    "series_prediction",
    "quadrature_feasible",
]

# the largest grid in use: the default 32 nodes per mode on a 4-site lattice
QUADRATURE_NODE_CAP = 32 ** 4
# calibrate_Cj: the coupling C_j is fitted at, and the margin over the gap seen there
LAM_CAL = 0.1
SAFETY = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One stability experiment: lattice, coupling, source and order."""

    spec: LatticeSpec
    lam: float
    f: tuple = None
    j: int = 1
    seed: int = 0
    n_samples: int = 100_000
    gh_nodes: int = 32

    def __post_init__(self):
        # lam = 0 is admitted as the exactly solvable Gaussian control case
        if not 0 <= self.lam < 1:
            raise ValueError("lambda must lie in [0,1)")
        self.spec.source(self.f)
        if self.gh_nodes < 1:
            raise ValueError("gh_nodes must be at least 1")
        if self.n_samples < 2:
            # the MC error bar is a sample covariance, undefined for one sample
            raise ValueError("n_samples must be at least 2")

    @property
    def method(self) -> str:
        return "exact-quadrature" if quadrature_feasible(self.spec, self.gh_nodes) else "MC"

    @property
    def f_array(self) -> np.ndarray:
        return self.spec.source(self.f)

    @property
    def B(self) -> float:
        if self.lam == 0.0:
            return float("inf")
        return field_threshold(self.lam)


@dataclass
class StabilityReport:
    """Estimate, series value, envelope and verdict for one configuration."""

    value: float
    error: float
    series_value: float
    envelope: float
    inside: bool
    extras: dict = field(default_factory=dict)


def quadrature_feasible(spec: LatticeSpec, gh_nodes: int) -> bool:
    """True when the gh_nodes ** n_sites quadrature grid fits QUADRATURE_NODE_CAP."""
    return gh_nodes ** spec.n_sites <= QUADRATURE_NODE_CAP


def _interaction_log_density(cfg: ExperimentConfig, cts: Counterterms, s4, s2, lin,
                             t_values) -> dict:
    """V_t = -a^d sum_x (lambda phi^4 + mu phi^2 + nu + t f phi) for each t, from
    the per-node (or per-sample) sums s4 = sum_x phi_x^4, s2 = sum_x phi_x^2
    and lin = sum_x f_x phi_x.  The t-independent part is computed once."""
    spec = cfg.spec
    w = spec.a ** spec.d
    even = cfg.lam * s4 + cts.mu * s2 + cts.nu * spec.n_sites
    return {t: -w * (even + t * lin) for t in t_values}


def _gauss_hermite(nodes: int):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # weight e^{-x^2}; transform to the standard normal measure
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _mode_basis(spec: LatticeSpec):
    M = covariance_cumulative(spec, spec.N).matrix()
    evals, evecs = np.linalg.eigh(M)
    evals = np.clip(evals, 0.0, None)
    return evecs * np.sqrt(evals)[None, :]  # phi = A @ y, y ~ N(0, I)


@functools.lru_cache(maxsize=4)
def _node_grid(spec: LatticeSpec, gh_nodes: int):
    """The lambda- and f-independent part of the quadrature on the tensor grid
    of gh_nodes ** n_sites nodes y (row-major over the modes), phi = A y:
    (weights, s2, s4, x, A) with per-node vectors weights, s2 = sum_x phi_x^2
    and s4 = sum_x phi_x^4, the 1-D nodes x and the mode basis A.  phi exists,
    site-major (sites, nodes), only while the sums are taken.  The arrays are
    read-only.  At QUADRATURE_NODE_CAP nodes an entry holds 24 MiB, so the
    cache at most 96 MiB; a build needs 64 MiB more while it runs.  A grid
    over the cap raises InfeasibleSizeError before any array is built."""
    if not quadrature_feasible(spec, gh_nodes):
        raise InfeasibleSizeError(
            f"{gh_nodes}^{spec.n_sites} quadrature nodes exceed the cap of "
            f"{QUADRATURE_NODE_CAP}")
    n = spec.n_sites
    x, w = _gauss_hermite(gh_nodes)
    A = _mode_basis(spec)
    weights = functools.reduce(np.multiply.outer, [w] * n).ravel()
    y = np.array(np.meshgrid(*([x] * n), indexing="ij", copy=False)).reshape(n, -1)
    phi = A @ y  # site-major (sites, nodes)
    s2 = np.square(phi, out=y).sum(axis=0)
    s4 = np.power(phi, 4.0, out=phi).sum(axis=0)  # phi**4 to the last bit
    for arr in (weights, s2, s4, x, A):
        arr.setflags(write=False)
    return weights, s2, s4, x, A


def _quadrature_log_ratio(cfg: ExperimentConfig, cts: Counterterms,
                          t_values=(1.0,)) -> dict:
    """log Z(t f) - log Z(0) for each t, on the dense Gauss-Hermite tensor grid.

    Taken as a ratio, log1p(sum_i p_i expm1(-a^d t lin_i)) with p the
    normalized t = 0 node weights, so a small log-ratio does not inherit the
    rounding of log Z(0) as a difference of two log-sums would.
    """
    spec = cfg.spec
    weights, s2, s4, x, A = _node_grid(spec, cfg.gh_nodes)
    # f . phi = sum_k (A^T f)_k y_k, an outer sum over the modes
    lin = functools.reduce(np.add.outer, [c * x for c in A.T @ cfg.f_array]).ravel()
    logs0 = _interaction_log_density(cfg, cts, s4, s2, lin, [0.0])[0.0]
    p = weights * np.exp(logs0 - logs0.max())
    p /= p.sum()
    w = spec.a ** spec.d
    return {t: math.log1p(float(p @ np.expm1(-w * t * lin))) for t in t_values}


def _mc_log_ratio(cfg: ExperimentConfig, cts: Counterterms, t_values=(1.0,)) -> dict:
    """(log Z(t f) - log Z(0), error) for each t, all from one shared draw."""
    spec = cfg.spec
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    y = rng.standard_normal((cfg.n_samples, spec.n_sites))
    phi = _mode_basis(spec) @ y.T  # site-major (sites, samples)
    lin = cfg.f_array @ phi
    s2 = np.square(phi, out=phi).sum(axis=0)
    s4 = np.square(phi, out=phi).sum(axis=0)  # per call: a square is far cheaper than pow
    logs = _interaction_log_density(cfg, cts, s4, s2, lin, [*t_values, 0.0])
    v0 = logs[0.0]
    out = {}
    for t in t_values:
        v1 = logs[t]
        shift = max(float(v1.max()), float(v0.max()))
        e1, e0 = np.exp(v1 - shift), np.exp(v0 - shift)
        ratio = float(np.mean(e1) / np.mean(e0))
        # delta-method error bar for the shared-seed ratio estimator
        cov = np.cov(e1, e0)
        m1, m0 = float(np.mean(e1)), float(np.mean(e0))
        var = (cov[0, 0] / m1 ** 2 - 2 * cov[0, 1] / (m1 * m0)
               + cov[1, 1] / m0 ** 2) / cfg.n_samples
        out[t] = (math.log(ratio), math.sqrt(max(var, 0.0)))
    return out


def series_prediction(cfg: ExperimentConfig, cts: Counterterms | None = None) -> float:
    """Order-j truncated series value of (1/|Lambda|) log(Z(f)/Z(0))."""
    spec = cfg.spec
    if cts is None:
        cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
    with_f = logZ_series(spec, cfg.lam, cfg.f_array, cfg.j, cts=cts)
    without = logZ_series(spec, cfg.lam, None, cfg.j, cts=cts)
    return with_f.total(cfg.lam) - without.total(cfg.lam)


def _calibration_spec(spec: LatticeSpec) -> LatticeSpec:
    """The coarsest lattice of spec's box (d, L, m, gamma) whose side divides spec's."""
    for N in range(1, spec.N + 1):
        try:
            sp = replace(spec, N=N)
        except ValueError:
            continue
        if spec.n_side % sp.n_side == 0:
            return sp


def calibrate_Cj(cfg: ExperimentConfig) -> float:
    """Fit the remainder constant C_j at LAM_CAL on the coarsest lattice of the box.

    The observed |quadrature - series| discrepancy at LAM_CAL fixes C_j so the
    envelope with that constant covers the discrepancy SAFETY times over;
    the lambda^(j+1) scaling of both sides then keeps smaller couplings inside.
    """
    sp = _calibration_spec(cfg.spec)
    cal = replace(cfg, spec=sp, lam=LAM_CAL,
                  f=None if cfg.f is None else _refine_source(cfg.f, cfg.spec, sp))
    cts = counterterms(cal.spec, LAM_CAL, nu_order=cal.j)
    quad = _quadrature_log_ratio(cal, cts)[1.0] / (cal.spec.n_sites * cal.spec.a ** cal.spec.d)
    series = series_prediction(cal, cts)
    shape = sum(remainder_bound(cal.j, h, LAM_CAL, cal.B, cal.spec.d,
                                C_j=1.0, gamma=cal.spec.gamma).value
                for h in range(1, cal.spec.N + 1))
    gap = abs(quad - series)
    if shape <= 0:
        return 1.0
    return SAFETY * gap / shape


def estimate_Z(cfg: ExperimentConfig, cts: Counterterms | None = None,
               C_j: float | None = None) -> StabilityReport:
    """Estimate (1/|Lambda|) log(Z(f)/Z(0)) and compare with the series.

    The envelope is sum_h R(j,h) with the (fitted) constant C_j.
    """
    spec = cfg.spec
    if cts is None:
        cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
    vol = spec.n_sites * spec.a ** spec.d
    if cfg.method == "exact-quadrature":
        value = _quadrature_log_ratio(cfg, cts)[1.0] / vol
        error = 0.0
    else:
        raw, err = _mc_log_ratio(cfg, cts)[1.0]
        value, error = raw / vol, err / vol
    series = series_prediction(cfg, cts)
    if cfg.lam == 0.0:
        C_j = 0.0
        envelope = 0.0
    else:
        if C_j is None:
            C_j = calibrate_Cj(cfg)
        envelope = sum(
            remainder_bound(cfg.j, h, cfg.lam, cfg.B, spec.d,
                            C_j=C_j, gamma=spec.gamma).value
            for h in range(1, spec.N + 1))
    # at lam = 0 the series is exact; allow rounding noise in the verdict
    inside = abs(value - series) <= envelope + error + 1e-12
    return StabilityReport(value=value, error=error, series_value=series,
                           envelope=envelope, inside=inside,
                           extras={"C_j": C_j, "B": cfg.B, "method": cfg.method})


def _refine_source(f, old_spec: LatticeSpec, new_spec: LatticeSpec) -> tuple:
    """Carry a source table to a refined lattice at fixed physical volume.

    The table is read as a piecewise-constant function on the torus: each
    coarse cell's value is replicated over the finer cells it contains.  On
    coarsening, cells are averaged back.
    """
    arr = np.asarray(f, dtype=float).reshape(old_spec.shape)
    if new_spec.n_side >= old_spec.n_side:
        ratio = new_spec.n_side / old_spec.n_side
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid refinement ratio must be an integer")
        k = int(round(ratio))
        for axis in range(old_spec.d):
            arr = np.repeat(arr, k, axis=axis)
    else:
        ratio = old_spec.n_side / new_spec.n_side
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid coarsening ratio must be an integer")
        k = int(round(ratio))
        for axis in range(old_spec.d):
            shape = arr.shape[:axis] + (arr.shape[axis] // k, k) + arr.shape[axis + 1:]
            arr = arr.reshape(shape).mean(axis=axis + 1)
    return tuple(arr.ravel())


def stability_envelope(cfg: ExperimentConfig, N_range) -> dict:
    """Estimates across cutoffs at fixed physical volume, against one envelope.

    The lattice is refined as N grows (L and m fixed); exact quadrature is
    used while its grid is feasible, Monte Carlo beyond that.
    """
    spec = cfg.spec
    reports = {}
    C_j = calibrate_Cj(cfg) if cfg.lam > 0 else None
    for N in N_range:
        sp = replace(spec, N=int(N))
        sub = replace(cfg, spec=sp,
                      f=None if cfg.f is None else _refine_source(cfg.f, spec, sp))
        reports[int(N)] = estimate_Z(sub, C_j=C_j)
    values = [r.value for r in reports.values()]
    spread = max(values) - min(values) if values else 0.0
    envelope = max(r.envelope + r.error for r in reports.values()) if reports else 0.0
    return {"reports": reports, "spread": spread, "envelope": envelope,
            "inside": spread <= 2 * envelope if reports else True}


def _smeared_source(spec: LatticeSpec, f: np.ndarray) -> np.ndarray:
    """a^d (C f) for C = C^(<=N), by FFT: C is circulant, with the mode weights
    as its spectrum, so no dense matrix is built."""
    weights = covariance_cumulative(spec, spec.N).mode_weights
    return np.fft.ifftn(weights * np.fft.fftn(f.reshape(spec.shape))).real.ravel()


def nongaussianity(cfg: ExperimentConfig, delta: float = 0.5,
                   cts: Counterterms | None = None) -> dict:
    """Fourth cumulant of the source coupling via a 5-point stencil.

    Differentiates g(t) = log(Z(t f)/Z(0)) four times at t=0 and compares with
    the order-lambda prediction  -4! lambda a^d sum_z ((C * f)_z)^4.
    """
    if delta <= 1e-6:
        raise ValueError("stencil step too small")
    if delta > 0.5:
        raise ValueError("stencil step must keep |t f| <= 1")
    spec = cfg.spec
    if cts is None:
        cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
    ts = [-2 * delta, -delta, delta, 2 * delta]
    if cfg.method == "exact-quadrature":
        g = _quadrature_log_ratio(cfg, cts, t_values=ts)
    else:
        g = {t: raw for t, (raw, _) in _mc_log_ratio(cfg, cts, ts).items()}
    kappa4 = (g[-2 * delta] - 4 * g[-delta] - 4 * g[delta] + g[2 * delta]) / delta ** 4
    conv = _smeared_source(spec, cfg.f_array)
    prediction = -math.factorial(4) * cfg.lam * spec.a ** spec.d * float(np.sum(conv ** 4))
    return {"kappa4": float(kappa4), "prediction": prediction,
            "relative_gap": (abs(kappa4 - prediction) / abs(prediction)
                             if prediction else float("inf"))}
