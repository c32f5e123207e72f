"""Desk-scale stability experiments on the interacting measure.

Estimates log(Z(f)/Z(0)) with one ratio estimator over mirror pairs
{phi, -phi}, one even term each (the measure is even under phi -> -phi): the
exact Gauss-Hermite grid over the covariance's Hartley modes while it fits
QUADRATURE_NODE_CAP = 32^4 nodes, half its nodes kept per (spec, gh_nodes),
else n_samples / 2 Monte Carlo draws with a pair error.  The grid spends
nodes by mode weight: gh_nodes on the box-scale zero mode, and
min(gh_nodes, LOW_NODES = 4) on every other mode, exact through degree 7
there; where the cap admits gh_nodes > 4 (4, 8 and 9 sites) no other mode
has more than 0.46 % of the zero mode's weight.  C_j calibration needs the
grid and refuses one over the cap with InfeasibleSizeError (CLI exit 3).
Compares the estimates with the truncated series inside a remainder envelope
and measures the non-Gaussian fourth cumulant of the source-coupled field."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice_propagator import (InfeasibleSizeError, LatticeSpec, MAX_TENSOR_ENTRIES,
                                 covariance_cumulative)
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

# the largest grid admitted: 32 ** 4 nodes, 64 x 4^7 on an 8-site lattice
QUADRATURE_NODE_CAP = 32 ** 4
# Gauss-Hermite nodes on every mode but the zero mode (at most gh_nodes)
LOW_NODES = 4
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
        if self.n_samples < 4 or self.n_samples % 2:
            # n_samples / 2 antithetic pairs; the MC error bar divides by pairs - 1
            raise ValueError("n_samples must be even and at least 4")

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
    """Estimate, series value, envelope and verdict for one configuration.

    ``inside`` is |value - series| <= envelope + error: it allows one MC
    standard error, about 68 % two-sided for a normal estimate; on the
    quadrature grid the error is 0 and the verdict is exact."""

    value: float
    error: float
    series_value: float
    envelope: float
    inside: bool
    extras: dict = field(default_factory=dict)


def quadrature_feasible(spec: LatticeSpec, gh_nodes: int) -> bool:
    """True when the grid of _node_counts(spec, gh_nodes) fits QUADRATURE_NODE_CAP."""
    return _grid_size(_node_counts(spec, gh_nodes)) <= QUADRATURE_NODE_CAP


@functools.lru_cache(maxsize=32)
def _node_counts(spec: LatticeSpec, gh_nodes: int) -> tuple:
    """Gauss-Hermite nodes per mode in _mode_basis's column order (stable
    ascending weight), from the kernel's mode weights alone: gh_nodes on the
    largest, the zero mode's, and min(gh_nodes, LOW_NODES) on every other."""
    weights = np.sort(covariance_cumulative(spec, spec.N).mode_weights, axis=None)
    return tuple(np.where(weights < weights[-1], min(gh_nodes, LOW_NODES), gh_nodes).tolist())


def _grid_size(counts: tuple) -> int:
    """prod_i g_i, the nodes of the tensor grid with counts g_i, taken by powers."""
    return math.prod(g ** counts.count(g) for g in set(counts))


def _grid_text(counts: tuple) -> str:
    """The node product of a grid, largest count first: '32^1 x 4^7'."""
    return " x ".join(f"{g}^{counts.count(g)}" for g in sorted(set(counts), reverse=True))


def _gauss_hermite(nodes: int):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # weight e^{-x^2}; transform to the standard normal measure
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


@functools.lru_cache(maxsize=4)
def _mode_basis(spec: LatticeSpec):
    """The mode basis A, phi = A y for y ~ N(0, I): the Hartley basis of the
    circulant C^(<=N), column p = sqrt(w_p / (n_sites a^d)) cas(2 pi (p.x mod
    n_side) / n_side), cas = cos + sin, for the even mode weights w in the order
    of _node_counts, the constant zero mode last; A A^T = C.  Read-only, kept for
    the last four specs: n_sites^2 floats, 512 KiB on 256 sites, at most 400 MB."""
    weights = covariance_cumulative(spec, spec.N).mode_weights.ravel()
    order = np.argsort(weights, kind="stable")
    k = np.indices(spec.shape).reshape(spec.d, -1)
    angles = 2 * np.pi * np.arange(spec.n_side) / spec.n_side
    A = (np.cos(angles) + np.sin(angles))[(k.T @ k[:, order]) % spec.n_side]
    A *= np.sqrt(weights[order] / (spec.n_sites * spec.a ** spec.d))
    A.setflags(write=False)
    return A


def _half_outer(ufunc, factors) -> np.ndarray:
    """ufunc.outer of one 1-D factor per mode, raveled row-major, cut to the
    kept half: the first factor to ceil(g_1 / 2) values, the ravel to
    ceil(prod_i g_i / 2)."""
    g = len(factors[0])
    outer = functools.reduce(ufunc.outer, [factors[0][:(g + 1) // 2], *factors[1:]])
    return outer.ravel()[:(math.prod(map(len, factors)) + 1) // 2]


@functools.lru_cache(maxsize=4)
def _node_grid(spec: LatticeSpec, gh_nodes: int):
    """The lambda- and f-independent quadrature on the mirror pairs of the
    tensor grid y with _node_counts nodes per mode (row-major over the modes),
    phi = A y: every 1-D rule is symmetric, so node k's mirror -y is node
    prod_i g_i - 1 - k, and the first half (rounded up) is kept with doubled
    weights, but for the centre y = 0 when every count is odd.  Read-only
    (weights, s2, s4, xs, A): per pair s2 = sum_x phi_x^2 and s4 = sum_x
    phi_x^4; the 1-D nodes per mode xs; the basis A.  12 MiB at the cap, a
    cache of at most 48 MiB; over the cap InfeasibleSizeError, before any array."""
    counts = _node_counts(spec, gh_nodes)
    size = _grid_size(counts)
    if size > QUADRATURE_NODE_CAP:
        raise InfeasibleSizeError(f"a {_grid_text(counts)}-node quadrature grid exceeds "
                                  f"the cap of {QUADRATURE_NODE_CAP}")
    rules = {g: _gauss_hermite(g) for g in set(counts)}
    xs = tuple(rules[g][0] for g in counts)
    A = _mode_basis(spec)
    weights = 2 * _half_outer(np.multiply, [rules[g][1] for g in counts])
    weights[size // 2:] /= 2  # the centre y = 0 of an all-odd grid, if any
    s2 = s4 = 0.0
    for row in A:  # phi_x = sum_k A_xk y_k, one site at a time
        phi2 = np.square(_half_outer(np.add, [a * x for a, x in zip(row, xs)]))
        s2, s4 = s2 + phi2, s4 + np.square(phi2)
    for arr in (weights, s2, s4, *xs):
        arr.setflags(write=False)
    return weights, s2, s4, xs, A


def _nodes(cfg: ExperimentConfig):
    """(weights, s2, s4, lin) per mirror pair {phi, -phi}: s2 = sum_x phi_x^2 and
    s4 = sum_x phi_x^4 of both, lin = sum_x f_x phi_x of phi (-lin of -phi).
    The pairs of _node_grid while quadrature_feasible, else P = n_samples / 2
    draws phi = A y weighted 2 / n_samples, refused (InfeasibleSizeError) before
    any array if the basis (n_sites^2) or block (n_sites P) passes MAX_TENSOR_ENTRIES."""
    if cfg.method == "exact-quadrature":
        weights, s2, s4, xs, A = _node_grid(cfg.spec, cfg.gh_nodes)
        return weights, s2, s4, _half_outer(np.add, [c * x for c, x in zip(A.T @ cfg.f_array, xs)])
    n, P = cfg.spec.n_sites, cfg.n_samples // 2
    if n * max(n, P) > MAX_TENSOR_ENTRIES:
        raise InfeasibleSizeError(f"MC on {n} sites, {P} pairs: entries over MAX_TENSOR_ENTRIES")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    phi = _mode_basis(cfg.spec) @ rng.standard_normal((P, n)).T  # site-major (sites, pairs)
    lin = cfg.f_array @ phi
    s2 = np.square(phi, out=phi).sum(axis=0)
    s4 = np.square(phi, out=phi).sum(axis=0)  # per call: a square is far cheaper than pow
    return np.full(P, 2 / cfg.n_samples), s2, s4, lin


def _log_ratio_terms(cfg: ExperimentConfig, cts: Counterterms, t_values) -> dict:
    """{t: (log Z(t f) - log Z(0), q)} over the mirror pairs of _nodes.

    With p the pair weights times exp(-a^d sum_x (lambda phi^4 + mu phi^2 +
    nu)), normalized, a pair's term is its members' mean of expm1(-/+ a^d t
    lin), E = 2 sinh^2(a^d t lin / 2) >= 0, and the value is log1p(m), m =
    sum p E: no sum cancels, nor carries log Z(0)'s rounding as a difference
    of two log-sums would.  q holds the delta-method influences
    p_k (E_k - m) / (1 + m) of the independent MC pairs; empty on the grid.
    """
    spec = cfg.spec
    weights, s2, s4, lin = _nodes(cfg)
    w = spec.a ** spec.d
    logs0 = -w * (cfg.lam * s4 + cts.mu * s2 + cts.nu * spec.n_sites)
    p = weights * np.exp(logs0 - logs0.max())
    p /= p.sum()
    out = {}
    for t in t_values:
        E = 2 * np.square(np.sinh((w * t / 2) * lin))
        m = float(np.sum(p * E))
        out[t] = (math.log1p(m), p * (E - m) / (1 + m) if cfg.method == "MC" else p[:0])
    return out


def _pair_error(q: np.ndarray) -> float:
    """Standard error sqrt(P/(P-1) sum q^2) of a sum of influences q over P
    independent pairs; 0 when there are none (the grid)."""
    P = len(q)
    return math.sqrt(P / (P - 1) * float(np.sum(np.square(q)))) if P else 0.0


def _log_ratios(cfg: ExperimentConfig, cts: Counterterms, t_values=(1.0,)) -> dict:
    """(log Z(t f) - log Z(0), error) for each t: the value of _log_ratio_terms
    and the pair error of its influences, 0 on the grid."""
    return {t: (value, _pair_error(q))
            for t, (value, q) in _log_ratio_terms(cfg, cts, t_values).items()}


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


def _envelope(cfg: ExperimentConfig, C_j: float) -> float:
    """sum_h R(j, h) over the scales h = 1..N of cfg's lattice, with constant C_j."""
    spec = cfg.spec
    return sum(remainder_bound(cfg.j, h, cfg.lam, cfg.B, spec.d, C_j=C_j, gamma=spec.gamma).value
               for h in range(1, spec.N + 1))


def calibrate_Cj(cfg: ExperimentConfig) -> float:
    """Fit the remainder constant C_j at LAM_CAL on the coarsest lattice of the box.

    The observed |quadrature - series| discrepancy at LAM_CAL fixes C_j so the
    envelope with that constant covers the discrepancy SAFETY times over;
    the lambda^(j+1) scaling of both sides then keeps smaller couplings inside.
    The fit needs the exact grid; over the cap it refuses, it never samples.
    """
    sp = _calibration_spec(cfg.spec)
    cal = replace(cfg, spec=sp, lam=LAM_CAL,
                  f=None if cfg.f is None else _refine_source(cfg.f, cfg.spec, sp))
    if cal.method == "MC":
        grid = _grid_text(_node_counts(sp, cal.gh_nodes))
        raise InfeasibleSizeError(f"C_j calibration needs exact quadrature: a {grid}-node "
                                  f"grid exceeds the cap of {QUADRATURE_NODE_CAP}")
    cts = counterterms(sp, LAM_CAL, nu_order=cal.j)
    quad = _log_ratios(cal, cts)[1.0][0] / (sp.n_sites * sp.a ** sp.d)
    gap = abs(quad - series_prediction(cal, cts))
    return SAFETY * gap / _envelope(cal, 1.0)


def estimate_Z(cfg: ExperimentConfig, C_j: float | None = None) -> StabilityReport:
    """Estimate (1/|Lambda|) log(Z(f)/Z(0)) and compare with the series.

    The envelope is sum_h R(j,h) with the (fitted) constant C_j.  The verdict
    ``inside`` allows one MC standard error, as StabilityReport states.
    """
    spec = cfg.spec
    cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
    vol = spec.n_sites * spec.a ** spec.d
    raw, err = _log_ratios(cfg, cts)[1.0]
    value, error = raw / vol, err / vol
    series = series_prediction(cfg, cts)
    if cfg.lam == 0.0:
        C_j = envelope = 0.0
    else:
        if C_j is None:
            C_j = calibrate_Cj(cfg)
        envelope = _envelope(cfg, C_j)
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


def nongaussianity(cfg: ExperimentConfig, delta: float = 0.5) -> dict:
    """Fourth cumulant of the source coupling via a 5-point stencil.

    Differentiates g(t) = log(Z(t f)/Z(0)) four times at t=0, from g(delta)
    and g(2 delta) alone as g is even and g(0) = 0, and compares with the
    order-lambda prediction  -4! lambda a^d sum_z ((C * f)_z)^4.
    ``kappa4_error`` is the stencil's pair error on MC draws (the per-pair
    influences of the two g(t), weighted); 0 on the grid.
    """
    if delta <= 1e-6:
        raise ValueError("stencil step too small")
    if delta > 0.5:
        raise ValueError("stencil step must keep |t f| <= 1")
    spec = cfg.spec
    cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
    stencil = {delta: -8, 2 * delta: 2}
    terms = _log_ratio_terms(cfg, cts, stencil)
    kappa4 = sum(c * terms[t][0] for t, c in stencil.items()) / delta ** 4
    kappa4_error = _pair_error(sum(c * terms[t][1] for t, c in stencil.items())) / delta ** 4
    conv = covariance_cumulative(spec, spec.N).smear(cfg.f_array)
    prediction = -math.factorial(4) * cfg.lam * spec.a ** spec.d * float(np.sum(conv ** 4))
    return {"kappa4": float(kappa4), "kappa4_error": kappa4_error, "prediction": prediction,
            "relative_gap": (abs(kappa4 - prediction) / abs(prediction)
                             if prediction else float("inf"))}
