import functools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phi4lab
from phi4lab import (
    LatticeSpec,
    PropagatorKernel,
    covariance_cumulative,
    scale_range_kernel,
    difference_kernel,
    ExperimentConfig,
    estimate_Z,
    stability_envelope,
    nongaussianity,
)
from phi4lab.feynman_graphs import counterterms
import phi4lab.stability_lab as stability_lab
from phi4lab.stability_lab import (
    InfeasibleSizeError,
    QUADRATURE_NODE_CAP,
    MAX_TENSOR_ENTRIES,
    _gauss_hermite,
    _grid_size,
    _log_ratio_terms,
    _log_ratios,
    _mode_basis,
    _node_counts,
    _node_grid,
    _nodes,
    _refine_source,
    calibrate_Cj,
    quadrature_feasible,
    series_prediction,
)


REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
F = (0.6, -0.4, 0.2, 0.5)
CUBE = LatticeSpec(d=3, L=1, m=1, gamma=2, N=1)  # 8 sites
F8 = (0.6, -0.4, 0.2, 0.5, -0.1, 0.3, -0.7, 0.25)
BOX64 = LatticeSpec(d=3, L=2, m=1, gamma=2, N=1)  # 64 sites: 32 x 4^63 nodes at the default


class TestConfig:
    def test_rejects_coupling_outside_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=REF, lam=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(spec=REF, lam=-0.1)

    def test_rejects_large_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=REF, lam=0.1, f=(2.0, 0, 0, 0))

    def test_rejects_wrong_length_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=REF, lam=0.1, f=(0.1, 0.2, 0.3))

    def test_rejects_empty_quadrature_rule(self):
        with pytest.raises(ValueError, match="gh_nodes"):
            ExperimentConfig(spec=REF, lam=0.1, gh_nodes=0)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n_samples"):
            ExperimentConfig(spec=REF, lam=0.1, n_samples=0)

    def test_rejects_single_sample(self):
        # one sample has no covariance, so the MC error bar would be nan
        with pytest.raises(ValueError, match="n_samples"):
            ExperimentConfig(spec=REF, lam=0.05, f=F, n_samples=1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rejects_odd_or_fewer_than_two_pairs(self, n):
        # draws come in antithetic pairs, and the pair error divides by pairs - 1
        with pytest.raises(ValueError, match="n_samples"):
            ExperimentConfig(spec=REF, lam=0.05, f=F, n_samples=n)

    def test_threshold_grows_for_small_coupling(self):
        a = ExperimentConfig(spec=REF, lam=0.001).B
        b = ExperimentConfig(spec=REF, lam=0.1).B
        assert a > b


class TestGaussianControl:
    def test_lam_zero_matches_quadratic_form(self):
        cfg = ExperimentConfig(spec=REF, lam=0.0, f=F)
        rep = estimate_Z(cfg)
        fa = np.asarray(F)
        M = covariance_cumulative(REF, REF.N).matrix()
        vol = REF.n_sites * REF.a ** REF.d
        exact = 0.5 * REF.a ** (2 * REF.d) * fa @ M @ fa / vol
        assert rep.value == pytest.approx(exact, abs=1e-12)
        assert rep.value == pytest.approx(rep.series_value, abs=1e-10)
        assert rep.inside

    def test_no_source_gives_zero(self):
        cfg = ExperimentConfig(spec=REF, lam=0.05, f=None)
        rep = estimate_Z(cfg)
        assert abs(rep.value) < 1e-12

    def test_lam_zero_fourth_cumulant_vanishes(self):
        cfg = ExperimentConfig(spec=REF, lam=0.0, f=F)
        assert abs(nongaussianity(cfg)["kappa4"]) < 1e-10


class TestEstimators:
    def test_quadrature_inside_envelope(self):
        cfg = ExperimentConfig(spec=REF, lam=0.05, f=F, j=2)
        rep = estimate_Z(cfg, C_j=calibrate_Cj(cfg))
        assert rep.error == 0.0
        assert rep.envelope > 0
        assert rep.inside

    def test_mc_agrees_with_quadrature(self):
        # 65 x 4^7 nodes are over the cap, so CUBE draws samples at gh_nodes=65
        cfg = ExperimentConfig(spec=CUBE, lam=0.05, f=F8, j=1, seed=3, n_samples=200_000)
        mc = replace(cfg, gh_nodes=65)
        assert (cfg.method, mc.method) == ("exact-quadrature", "MC")
        cts = counterterms(CUBE, cfg.lam, nu_order=cfg.j)
        raw, err = _log_ratios(mc, cts)[1.0]
        quad, quad_err = _log_ratios(cfg, cts)[1.0]
        assert err > 0 and quad_err == 0.0
        assert abs(raw - quad) < 3 * err

    def test_mc_is_seed_deterministic(self):
        cfg = ExperimentConfig(spec=CUBE, lam=0.05, f=F8, j=1, seed=11, n_samples=20_000,
                               gh_nodes=65)
        assert cfg.method == "MC"
        cts = counterterms(CUBE, cfg.lam, nu_order=cfg.j)
        assert _log_ratios(cfg, cts) == _log_ratios(cfg, cts)

    @pytest.mark.parametrize("spec", [LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2),
                                      LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)])
    def test_mc_matches_ratio_of_means(self, spec):
        # reference: log of a ratio of sample means over both mirrors of every
        # pair (lin and -lin), with the np.cov delta-method error bar over the
        # P independent pair means, over the same draws.  Mirroring cancels
        # most of the pair means' spread, so the three covariance terms nearly
        # cancel (1e-2 each against a sum of 1e-8 on 64 sites): they are taken
        # in extended precision.
        f = tuple(np.random.default_rng(3).uniform(-0.5, 0.5, spec.n_sites))
        cfg = ExperimentConfig(spec=spec, lam=0.05, f=f, seed=7, n_samples=20_000)
        assert cfg.method == "MC"
        cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
        _, s2, s4, lin = _nodes(cfg)
        P = cfg.n_samples // 2
        assert len(lin) == P
        w = spec.a ** spec.d
        even = np.tile(cfg.lam * s4 + cts.mu * s2 + cts.nu * spec.n_sites, 2)
        lin = np.concatenate((lin, -lin))
        for t, (value, error) in _log_ratios(cfg, cts, (-1.0, 0.5, 1.0)).items():
            v1, v0 = -w * (even + t * lin), -w * even
            shift = max(v1.max(), v0.max())
            e1, e0 = np.exp(v1 - shift), np.exp(v0 - shift)
            m1, m0 = e1.mean(), e0.mean()
            assert value == pytest.approx(math.log(m1 / m0), rel=1e-10, abs=0)
            e1, e0 = e1.astype(np.longdouble), e0.astype(np.longdouble)
            m1, m0 = e1.mean(), e0.mean()
            cov = np.cov((e1[:P] + e1[P:]) / 2, (e0[:P] + e0[P:]) / 2)
            var = (cov[0, 0] / m1 ** 2 - 2 * cov[0, 1] / (m1 * m0) + cov[1, 1] / m0 ** 2)
            assert error == pytest.approx(float(np.sqrt(var / P)), rel=1e-10, abs=0)

    def test_method_follows_the_node_cap(self):
        big = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
        assert ExperimentConfig(spec=REF, lam=0.05).method == "exact-quadrature"
        assert ExperimentConfig(spec=big, lam=0.05).method == "MC"
        assert ExperimentConfig(spec=CUBE, lam=0.05).method == "exact-quadrature"
        assert ExperimentConfig(spec=CUBE, lam=0.05, gh_nodes=65).method == "MC"

    def test_node_cap_refuses_sixty_four_sites_at_default_nodes(self):
        # MC on the run, but its C_j calibration needs the 32 x 4^63-node grid
        f = tuple(np.random.default_rng(3).uniform(-0.5, 0.5, BOX64.n_sites))
        cfg = ExperimentConfig(spec=BOX64, lam=0.05, f=f, n_samples=2000)
        assert _grid_size(_node_counts(BOX64, cfg.gh_nodes)) > QUADRATURE_NODE_CAP
        with pytest.raises(InfeasibleSizeError, match=r"a 32\^1 x 4\^63-node grid"):
            estimate_Z(cfg)

    def test_eight_site_gaussian_control_under_the_cap(self):
        fa = np.asarray(F8)
        M = covariance_cumulative(CUBE, CUBE.N).matrix()
        vol = CUBE.n_sites * CUBE.a ** CUBE.d
        exact = 0.5 * CUBE.a ** (2 * CUBE.d) * fa @ M @ fa / vol
        for gh in (4, 32):  # 4^8 and the default 32 x 4^7 nodes
            rep = estimate_Z(ExperimentConfig(spec=CUBE, lam=0.0, f=F8, gh_nodes=gh))
            assert rep.extras["method"] == "exact-quadrature"
            assert rep.value == pytest.approx(exact, abs=1e-12)

    def test_feasibility_decides_the_sweep_method(self):
        # CUBE's grid is 32 x 4^7 nodes at gh 32, under the cap, and 65 x 4^7
        # at gh 65, over it; its refinement to 64 sites is over the cap at both
        for gh in (32, 65):
            cfg = ExperimentConfig(spec=CUBE, lam=0.0, f=F8, gh_nodes=gh, n_samples=2000)
            sweep = stability_envelope(cfg, N_range=[1, 2])
            for N, rep in sweep["reports"].items():
                sp = LatticeSpec(d=3, L=1, m=1, gamma=2, N=N)
                assert ((rep.extras["method"] == "exact-quadrature")
                        == quadrature_feasible(sp, gh))
            assert [rep.extras["method"] for rep in sweep["reports"].values()] == (
                ["exact-quadrature", "MC"] if gh == 32 else ["MC", "MC"])

    def test_series_prediction_is_source_difference(self):
        cfg = ExperimentConfig(spec=REF, lam=0.05, f=F, j=1)
        cfg0 = ExperimentConfig(spec=REF, lam=0.05, f=None, j=1)
        assert series_prediction(cfg0) == pytest.approx(0.0, abs=1e-14)
        assert series_prediction(cfg) != 0.0


SIXTEEN = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)  # the CLI's default lattice


def cli_source(spec):
    """The source `phi4lab stability` draws at its default seed 0."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    return tuple(rng.uniform(-0.5, 0.5, spec.n_sites))


class TestAntitheticPairs:
    def test_nodes_are_mirrored_bitwise(self):
        # one entry per pair {phi, -phi}, weighted 2 / n_samples, and one
        # influence per pair
        cfg = ExperimentConfig(spec=SIXTEEN, lam=0.05, f=cli_source(SIXTEEN), seed=4,
                               n_samples=1000)
        weights, s2, s4, lin = _nodes(cfg)
        assert len(weights) == len(s2) == len(s4) == len(lin) == 500
        assert np.all(weights == 2 / 1000)
        terms = _log_ratio_terms(cfg, counterterms(SIXTEEN, cfg.lam, nu_order=cfg.j), (0.5,))
        assert len(terms[0.5][1]) == 500

    def test_draw_block_over_the_entry_cap_is_refused(self):
        # 16 sites x 3.2e6 pairs pass MAX_TENSOR_ENTRIES: refused before drawing
        cfg = ExperimentConfig(spec=SIXTEEN, lam=0.05, n_samples=6_400_000)
        assert SIXTEEN.n_sites * cfg.n_samples // 2 > MAX_TENSOR_ENTRIES
        with pytest.raises(InfeasibleSizeError, match="MAX_TENSOR_ENTRIES"):
            _nodes(cfg)

    def test_log_ratio_is_even_in_the_source(self):
        cfg = ExperimentConfig(spec=SIXTEEN, lam=0.05, f=cli_source(SIXTEEN), seed=4,
                               n_samples=1000)
        got = _log_ratios(cfg, counterterms(SIXTEEN, cfg.lam, nu_order=cfg.j),
                          (-1.0, -0.5, 0.5, 1.0))
        for t in (0.5, 1.0):
            assert got[-t] == got[t]  # a pair's term is even in lin, bit for bit

    def test_pair_error_matches_seed_spread(self):
        cts = counterterms(SIXTEEN, 0.05, nu_order=1)
        values, errors = zip(*(
            _log_ratios(ExperimentConfig(spec=SIXTEEN, lam=0.05, f=cli_source(SIXTEEN),
                                         seed=seed, n_samples=1000), cts)[1.0]
            for seed in range(100)))
        assert np.std(values, ddof=1) == pytest.approx(np.median(errors), rel=0.2)

    def test_kappa4_error_matches_seed_spread(self):
        runs = [nongaussianity(ExperimentConfig(spec=SIXTEEN, lam=0.05, f=cli_source(SIXTEEN),
                                                seed=seed, n_samples=1000))
                for seed in range(100)]
        # the delta method estimates a variance, so its mean square is what
        # matches the spread; at 500 pairs the per-seed error is skewed and its
        # median reads about 25 % under the spread
        spread = np.std([r["kappa4"] for r in runs], ddof=1)
        rms = math.sqrt(np.mean(np.square([r["kappa4_error"] for r in runs])))
        assert spread == pytest.approx(rms, rel=0.2)

    @pytest.mark.parametrize("N", [2, 3])
    def test_gaussian_control_within_three_errors(self, N):
        # untilted draws: at lam = 0 the ratio is statistical, not exact
        spec = replace(SIXTEEN, N=N)
        f = cli_source(spec)
        rep = estimate_Z(ExperimentConfig(spec=spec, lam=0.0, f=f, n_samples=1000))
        fa = np.asarray(f)
        M = covariance_cumulative(spec, spec.N).matrix()
        exact = 0.5 * spec.a ** (2 * spec.d) * fa @ M @ fa / (spec.n_sites * spec.a ** spec.d)
        assert rep.extras["method"] == "MC" and rep.error > 0
        assert abs(rep.value - exact) <= 3 * rep.error

    def test_mode_basis_is_cached_and_read_only(self):
        _mode_basis.cache_clear()
        for seed in (1, 2):
            _nodes(ExperimentConfig(spec=SIXTEEN, lam=0.05, f=cli_source(SIXTEEN), seed=seed,
                                    n_samples=1000))
        info = _mode_basis.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        A = _mode_basis(SIXTEEN)
        with pytest.raises(ValueError):
            A[0, 0] = 0.0


class TestModeBasis:
    @pytest.mark.parametrize("spec", [
        REF, CUBE,
        LatticeSpec(d=2, L=1, m=1, gamma=3, N=1),  # 9 sites, an odd side
        LatticeSpec(d=3, L=1, m=1, gamma=3, N=1),  # 27 sites, an odd side
        SIXTEEN, replace(SIXTEEN, N=4)], ids=lambda spec: f"{spec.n_sites}-sites")
    def test_hartley_basis_diagonalizes_the_dense_covariance(self, spec):
        # A A^T is the covariance and A^T A is diagonal, its diagonal the mode
        # weights / a^d in ascending order up to rounding; the zero mode, the
        # last column, is constant
        kernel = covariance_cumulative(spec, spec.N)
        A = _mode_basis(spec)
        C = kernel.matrix()
        assert np.max(np.abs(A @ A.T - C)) <= 1e-15 * np.max(np.abs(C))
        gram = A.T @ A
        norms = np.diag(gram)
        assert np.max(np.abs(gram - np.diag(norms))) <= 1e-16 * np.max(norms)
        weights = np.sort(kernel.mode_weights, axis=None) / spec.a ** spec.d
        assert np.max(np.abs(norms - weights)) <= 1e-15 * weights[-1]
        assert np.all(A[:, -1] == A[0, -1])

    def test_stability_builds_no_matrix_and_calls_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense covariance or an eigensolver was called")

        monkeypatch.setattr(PropagatorKernel, "matrix", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for cache in (scale_range_kernel, _mode_basis, _node_counts, _node_grid):
            cache.cache_clear()
        grid = ExperimentConfig(spec=REF, lam=0.05, f=F)
        assert estimate_Z(grid).extras["method"] == "exact-quadrature"
        assert nongaussianity(grid)["kappa4"] < 0
        for N in (2, 4):  # 16 and 256 sites
            spec = replace(SIXTEEN, N=N)
            cfg = ExperimentConfig(spec=spec, lam=0.05, f=cli_source(spec), n_samples=1000)
            assert estimate_Z(cfg).extras["method"] == "MC"


def full_grid(spec, counts):
    """(weights, phi) over every node of the tensor grid with counts[k]
    Gauss-Hermite nodes on column k of _mode_basis, mirrors included, in
    extended precision: phi = y A^T with one row per node.  The isotropic
    grid of gh nodes per mode is counts = (gh,) * n_sites."""
    ld = np.longdouble
    rules = [_gauss_hermite(g) for g in counts]
    y = np.stack(np.meshgrid(*(x.astype(ld) for x, _ in rules), indexing="ij"),
                 axis=-1).reshape(-1, len(counts))
    weights = functools.reduce(np.multiply.outer, [w.astype(ld) for _, w in rules]).ravel()
    return weights, y @ _mode_basis(spec).T.astype(ld)


def oracle_log_ratio(cfg, cts, t_values, grid=None):
    """log Z(t f) - log Z(0) on a node-major full grid, by default full_grid
    of the engine's node counts, the interaction summed over the trailing
    site axis, all in extended precision, as log1p(sum_i p_i expm1(-a^d t f .
    phi_i)) under the normalized t = 0 weights p.  A difference of two
    log-sums would carry the rounding of log Z: on REF at gh 16 on every mode,
    t = 0.3, it is 1.1e-11 relative off in float64 and 1.5e-14 in extended
    precision, where this form is within 1e-16 of a 40-digit sum."""
    ld = np.longdouble
    spec = cfg.spec
    weights, phi = grid or full_grid(spec, _node_counts(spec, cfg.gh_nodes))
    w = ld(spec.a) ** spec.d
    logs0 = -w * (ld(cfg.lam) * np.sum(phi ** 4, axis=-1)
                  + ld(cts.mu) * np.sum(phi ** 2, axis=-1) + ld(cts.nu) * spec.n_sites)
    p = weights * np.exp(logs0 - np.max(logs0))
    p /= np.sum(p)
    lin = phi @ np.asarray(cfg.f_array).astype(ld)
    return {t: np.log1p(np.sum(p * np.expm1(-w * ld(t) * lin))) for t in t_values}


class TestQuadratureGrid:
    T_VALUES = (-1.0, -0.5, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("spec, f, gh", [(REF, F, 12), (REF, F, 15), (REF, F, 16),
                                             (REF, F, 20), (CUBE, F8, 3), (CUBE, F8, 4)])
    def test_matches_node_major_oracle(self, spec, f, gh):
        cfg = ExperimentConfig(spec=spec, lam=0.05, f=f, gh_nodes=gh)
        cts = counterterms(spec, cfg.lam, nu_order=cfg.j)
        got = _log_ratios(cfg, cts, self.T_VALUES)
        want = oracle_log_ratio(cfg, cts, self.T_VALUES)
        for t in self.T_VALUES:
            assert got[t][0] == pytest.approx(want[t], rel=1e-12, abs=0)
            assert got[t][1] == 0.0

    def test_small_ratio_matches_extended_precision_sums(self):
        # the full grid, mirrors included, built and reduced in extended
        # precision: the unpaired sum of expm1 terms, whose odd parts cancel
        cfg = ExperimentConfig(spec=REF, lam=0.05, f=F, gh_nodes=16)
        cts = counterterms(REF, cfg.lam, nu_order=cfg.j)
        want = oracle_log_ratio(cfg, cts, (0.3,))[0.3]
        got = _log_ratios(cfg, cts, (0.3,))[0.3][0]
        assert 6e-6 < got < 7e-6
        assert abs((np.longdouble(got) - want) / want) <= 1e-14

    @pytest.mark.parametrize("gh", [12, 16, 20, 32])
    def test_ref_matches_the_isotropic_grid(self, gh):
        # gh nodes on the zero mode and 4 on the others against gh on every
        # mode: the value and the stencil's fourth cumulant
        grid = full_grid(REF, (gh,) * REF.n_sites)
        for lam in (0.01, 0.05, 0.1):
            cfg = ExperimentConfig(spec=REF, lam=lam, f=F, gh_nodes=gh)
            cts = counterterms(REF, lam, nu_order=cfg.j)
            want = oracle_log_ratio(cfg, cts, (0.5, 1.0), grid)
            got = _log_ratios(cfg, cts, (0.5, 1.0))
            for t in (0.5, 1.0):
                assert got[t][0] == pytest.approx(float(want[t]), rel=1e-12, abs=0)
            kappa4 = float(-8 * want[0.5] + 2 * want[1.0]) / 0.5 ** 4
            assert nongaussianity(cfg)["kappa4"] == pytest.approx(kappa4, rel=1e-8, abs=0)

    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.1])
    def test_cube_matches_a_second_allocation(self, lam):
        # the default 32 x 4^7 nodes against 128 on the zero mode and 3 on the
        # others, 128 x 3^7
        cfg = ExperimentConfig(spec=CUBE, lam=lam, f=F8)
        assert _node_counts(CUBE, cfg.gh_nodes) == (4,) * 7 + (32,)
        cts = counterterms(CUBE, lam, nu_order=cfg.j)
        want = oracle_log_ratio(cfg, cts, (1.0,), full_grid(CUBE, (3,) * 7 + (128,)))[1.0]
        assert _log_ratios(cfg, cts)[1.0][0] == pytest.approx(float(want), rel=1e-6, abs=0)

    @pytest.mark.parametrize("spec, f, gh, low", [(REF, F, 6, 4), (REF, F, 7, 4), (REF, F, 3, 4),
                                                  (REF, F, 5, 3), (CUBE, F8, 3, 4)])
    def test_half_grid_and_its_mirror_are_the_full_grid(self, spec, f, gh, low, monkeypatch):
        # node k < ceil(G / 2) pairs with node G - 1 - k, its mirror -y, for G
        # the product of the counts: (4, 4, 4, 6), (4, 4, 4, 7), the all-odd
        # (3, 3, 3, 3) and (3, 3, 3, 5) on REF, and 3^8 on CUBE
        monkeypatch.setattr(stability_lab, "LOW_NODES", low)
        _node_counts.cache_clear()
        _node_grid.cache_clear()
        try:
            cfg = ExperimentConfig(spec=spec, lam=0.05, f=f, gh_nodes=gh)
            counts = _node_counts(spec, gh)
            assert counts == (min(gh, low),) * (spec.n_sites - 1) + (gh,)
            weights, s2, s4, lin = _nodes(cfg)
        finally:
            _node_counts.cache_clear()
            _node_grid.cache_clear()
        full_w, phi = full_grid(spec, counts)
        full = [np.sum(phi ** 2, axis=-1), np.sum(phi ** 4, axis=-1),
                phi @ np.asarray(f).astype(np.longdouble)]
        size = math.prod(counts)
        assert len(weights) == (size + 1) // 2
        assert math.fsum(weights) == pytest.approx(float(np.sum(full_w)), rel=1e-15, abs=0)
        mirrored = [np.concatenate((s2, s2[:size // 2][::-1])),
                    np.concatenate((s4, s4[:size // 2][::-1])),
                    np.concatenate((lin, -lin[:size // 2][::-1]))]
        for got, want in zip(mirrored, full):
            want = want.astype(float)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # doubled weights, but for the centre node of an all-odd grid, its own mirror
        half, centre = weights[:size // 2] / 2, weights[size // 2:]
        assert len(centre) == size % 2
        assert np.array_equal(np.concatenate((half, centre, half[::-1])), functools.reduce(
            np.multiply.outer, [_gauss_hermite(g)[1] for g in counts]).ravel())

    def test_node_counts_follow_the_mode_weights(self):
        # gh_nodes on the zero mode, the constant last column of the basis
        # (ascending weight), LOW_NODES = 4 or fewer on every other; worked
        # out from the kernel, with no eigh, even on 16384 sites
        _mode_basis.cache_clear()
        _node_counts.cache_clear()
        assert _node_counts(REF, 32) == (4, 4, 4, 32)
        assert _node_counts(REF, 3) == (3, 3, 3, 3)
        assert _node_counts(CUBE, 32) == (4,) * 7 + (32,)
        big = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=7)
        assert _node_counts(big, 32) == (4,) * 16383 + (32,)
        assert not quadrature_feasible(big, 32)
        assert _mode_basis.cache_info().misses == 0
        for spec in (REF, CUBE):
            zero = _mode_basis(spec)[:, -1]
            assert np.allclose(zero, zero[0], rtol=1e-12, atol=0)
        assert (quadrature_feasible(CUBE, 64), quadrature_feasible(CUBE, 65)) == (True, False)

    def test_grid_is_cached_per_spec_and_nodes(self):
        _node_grid.cache_clear()
        _node_counts.cache_clear()
        for lam, f in ((0.02, F), (0.07, (0.1, 0.9, -0.3, 0.0))):
            cfg = ExperimentConfig(spec=REF, lam=lam, f=f, gh_nodes=12)
            _log_ratios(cfg, counterterms(REF, lam, nu_order=1))
        info = _node_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert (_node_counts.cache_info().misses, _node_counts.cache_info().currsize) == (1, 1)
        weights, s2, s4, xs, A = _node_grid(REF, 12)
        assert [len(x) for x in xs] == [4, 4, 4, 12]
        for arr in (weights, s2, s4, *xs, A):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    def test_refused_grid_is_not_cached(self):
        _node_grid.cache_clear()
        for spec, gh in ((BOX64, 32), (CUBE, 65)):
            with pytest.raises(InfeasibleSizeError, match="-node quadrature grid exceeds"):
                _node_grid(spec, gh)
        assert _node_grid.cache_info().currsize == 0


class TestEnvelopeSweep:
    def test_fixed_volume_sweep_stays_inside(self):
        base = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        cfg = ExperimentConfig(spec=base, lam=0.05, f=(0.3, -0.2, 0.1, 0.25),
                               j=1, seed=2, n_samples=300_000)
        sweep = stability_envelope(cfg, N_range=[1, 2])
        assert set(sweep["reports"]) == {1, 2}
        assert sweep["reports"][2].extras["method"] == "MC"
        assert sweep["inside"]

    def test_calibration_runs_on_the_coarsest_lattice(self):
        coarse = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        fine = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
        f = (0.3, -0.2, 0.1, 0.25)
        cfg = ExperimentConfig(spec=fine, lam=0.05, f=_refine_source(f, coarse, fine), j=1)
        assert cfg.method == "MC"
        want = calibrate_Cj(ExperimentConfig(spec=coarse, lam=0.05, f=f, j=1))
        assert calibrate_Cj(cfg).hex() == want.hex()

    def test_refine_source_preserves_means_and_roundtrips(self):
        coarse = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        fine = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
        f = (0.3, -0.2, 0.1, 0.25)
        up = _refine_source(f, coarse, fine)
        assert len(up) == fine.n_sites
        assert np.mean(up) == pytest.approx(np.mean(f))
        assert _refine_source(up, fine, coarse) == pytest.approx(f)


class TestNonGaussianity:
    def test_negative_and_near_order_lambda_prediction(self):
        cfg = ExperimentConfig(spec=REF, lam=0.02, f=F, j=1)
        res = nongaussianity(cfg)
        assert res["kappa4"] < 0
        assert res["relative_gap"] < 0.10
        assert res["kappa4_error"] == 0.0  # the grid has no sampling error

    def test_contamination_shrinks_with_coupling(self):
        gaps = []
        for lam in (0.02, 0.005):
            cfg = ExperimentConfig(spec=REF, lam=lam, f=F)
            gaps.append(nongaussianity(cfg)["relative_gap"])
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("spec,h", [(REF, 0), (LatticeSpec(d=3, L=1, m=1, gamma=2, N=3), 0),
                                        (LatticeSpec(d=2, L=1, m=1, gamma=2, N=3), 1)])
    def test_fft_source_smearing_matches_dense_product(self, spec, h):
        # h = 0 is the cutoff covariance, h = 1 the difference kernel C^(1, N]
        kernel = difference_kernel(spec, h)
        f = np.random.default_rng(5).uniform(-1.0, 1.0, spec.n_sites)
        dense = kernel.matrix() @ f * spec.a ** spec.d
        err = np.max(np.abs(kernel.smear(f) - dense))
        assert err <= 1e-13 * np.max(np.abs(dense))

    def test_stencil_guard(self):
        cfg = ExperimentConfig(spec=REF, lam=0.02, f=F)
        with pytest.raises(ValueError):
            nongaussianity(cfg, delta=1e-9)


# float.hex of the estimator's outputs: the grid on REF at gh 16 and on CUBE
# at gh 32, the grids' fourth cumulant, and the CLI's default MC run (1000
# samples, seed 0, its source) on 16, 64, 256 and 1024 sites with a fixed C_j,
# and its fourth cumulant on each of them but 64 sites; then the order-3
# counterterm polynomials on REF, the sourced order-2 series on REF and on 64
# sites, the source-free order-2 flow constant on REF and the sum of one
# 16-site band sample.  4096 sites is left out: there the threaded gemm of
# the draws still moves the value by an ulp.
DIGEST_SCRIPT = """
import math
import numpy as np
from phi4lab import (LatticeSpec, ExperimentConfig, estimate_Z, flow_constant, logZ_series,
                     nongaussianity, sample_layer)
from phi4lab.feynman_graphs import counterterms
from phi4lab.stability_lab import _log_ratios

REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
F = (0.6, -0.4, 0.2, 0.5)
out = []
grid = ExperimentConfig(spec=REF, lam=0.05, f=F, gh_nodes=16)
for value, error in _log_ratios(grid, counterterms(REF, 0.05, nu_order=1), (0.3, 1.0)).values():
    out += [value, error]
res = nongaussianity(ExperimentConfig(spec=REF, lam=0.05, f=F))
out += [res["kappa4"], res["kappa4_error"]]
CUBE = LatticeSpec(d=3, L=1, m=1, gamma=2, N=1)
F8 = (0.6, -0.4, 0.2, 0.5, -0.1, 0.3, -0.7, 0.25)
cube = ExperimentConfig(spec=CUBE, lam=0.05, f=F8, gh_nodes=32)
for value, error in _log_ratios(cube, counterterms(CUBE, 0.05, nu_order=1), (0.3, 1.0)).values():
    out += [value, error]
res = nongaussianity(cube)
out += [res["kappa4"], res["kappa4_error"]]
for N in (2, 3, 4, 5):
    spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=N)
    f = tuple(np.random.default_rng(np.random.SeedSequence(entropy=0)).uniform(-0.5, 0.5,
                                                                               spec.n_sites))
    cfg = ExperimentConfig(spec=spec, lam=0.05, f=f, n_samples=1000)
    rep = estimate_Z(cfg, C_j=1.0)
    out += [rep.value, rep.error, rep.series_value, rep.envelope]
    if N != 3:
        res = nongaussianity(cfg)
        out += [res["kappa4"], res["kappa4_error"]]
cts = counterterms(REF, 0.05, nu_order=3)
out += list(cts.mu_poly) + list(cts.nu_poly)
out += list(logZ_series(REF, 0.05, F, 2, cts=cts).coefficients)
SIXTY_FOUR = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
f = np.random.default_rng(3).uniform(-1.0, 1.0, SIXTY_FOUR.n_sites)
out += list(logZ_series(SIXTY_FOUR, 0.05, f, 2).coefficients)
out += list(flow_constant(REF, 0.05, None, 2, cts=cts))
out.append(np.sum(sample_layer(LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2), 2, 0).values))
print(" ".join(float(v).hex() for v in out))
"""


def test_digests_equal_at_one_and_two_blas_threads():
    src = str(Path(phi4lab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 51
    assert digests[0] == digests[1]
