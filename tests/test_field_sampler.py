import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lab import (
    LatticeSpec,
    RegionClassification,
    covariance_band,
    sample_layer,
    assemble,
    hoelder_norm,
    classify_regions,
    field_threshold,
)
from phi4lab import field_sampler
from phi4lab.field_sampler import (
    _band_fields,
    _short_displacements,
    layer_norm_profile,
    pavement_cubes,
    tail_stats,
)
from phi4lab.lattice_propagator import InfeasibleSizeError, _range_weights


SPEC = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)


def make_field(spec=SPEC, seed=0):
    return assemble([sample_layer(spec, h, seed) for h in range(1, spec.N + 1)])


class TestThreshold:
    def test_grows_as_coupling_shrinks(self):
        assert field_threshold(1e-6) > field_threshold(1e-2) > field_threshold(0.5)

    def test_scale_factor(self):
        assert field_threshold(0.1, scale=3.0) == pytest.approx(3 * field_threshold(0.1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            field_threshold(0.0)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_layer(SPEC, 1, 42)
        b = sample_layer(SPEC, 1, 42)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample_layer(SPEC, 1, 0).values,
                                  sample_layer(SPEC, 1, 1).values)

    def test_layers_of_one_seed_are_independent_streams(self):
        assert not np.array_equal(sample_layer(SPEC, 1, 0).values,
                                  sample_layer(SPEC, 2, 0).values)

    def test_empirical_covariance_matches_band(self):
        spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        n = 4000
        draws = np.stack([sample_layer(spec, 1, s).values.ravel() for s in range(n)])
        emp = draws.T @ draws / n
        M = covariance_band(spec, 1).matrix()
        # 4000 samples: agreement at the few-percent level
        assert np.max(np.abs(emp - M)) < 0.1 * np.max(np.abs(M))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), h=st.integers(1, 2))
    def test_mean_zero_symmetry(self, seed, h):
        vals = sample_layer(SPEC, h, seed).values
        assert vals.shape == SPEC.shape
        assert np.all(np.isfinite(vals))


class TestAssembly:
    def test_phi_is_sum_of_layers(self):
        fld = make_field()
        total = sum(sample_layer(SPEC, h, 0).values for h in (1, 2))
        assert np.allclose(fld.phi(), total, atol=0)

    def test_partial_phi(self):
        fld = make_field()
        assert np.array_equal(fld.phi(1), sample_layer(SPEC, 1, 0).values)

    def test_X_recursion_d2(self):
        # X^(N) = N^(-1/2) z^(N) + sqrt((N-1)/N) X^(N-1)
        fld = make_field()
        lhs = fld.X(2)
        rhs = fld.layers[2].z / math.sqrt(2) + math.sqrt(1 / 2) * fld.X(1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_mismatched_specs(self):
        other = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        with pytest.raises(ValueError):
            assemble([sample_layer(SPEC, 1, 0), sample_layer(other, 1, 0)])

    def test_rejects_scale_gaps(self):
        with pytest.raises(ValueError):
            assemble([sample_layer(SPEC, 2, 0)])


class TestNorms:
    def test_constant_field_norm_is_sup(self):
        vals = np.full(SPEC.shape, 5.0)
        assert hoelder_norm(vals, SPEC, (0, 0), SPEC.n_side) == pytest.approx(5.0)

    def test_increment_term_detects_roughness(self):
        smooth = np.full(SPEC.shape, 1.0)
        rough = smooth.copy()
        rough[0, 0] = 2.0
        assert (hoelder_norm(rough, SPEC, (0, 0), SPEC.n_side)
                > hoelder_norm(smooth, SPEC, (0, 0), SPEC.n_side))

    def test_pavement_covers_lattice(self):
        spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=3)
        origins, side = pavement_cubes(spec, 1)
        assert side * side * len(origins) == spec.n_sites

    def test_profile_matches_direct_norms(self):
        # the second lattice has cube side 2 on a 9-site side: cubes wrap round
        for spec in (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2),
                     LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2)):
            layer = sample_layer(spec, 1, 3)
            origins, norms = layer_norm_profile(layer, tau=1)
            assert len(origins) == len(norms)
            _, side = pavement_cubes(spec, 1)
            for origin, norm in zip(origins, norms):
                assert norm == pytest.approx(_brute_force_norm(layer, origin, side),
                                             rel=1e-12)

    def test_pavement_origins_in_c_order(self):
        for spec, level in ((LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2), 1),
                            (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3), 2)):
            origins, side = pavement_cubes(spec, level)
            steps = range(0, spec.n_side, side)
            if spec.d == 2:
                expected = [(i, j) for i in steps for j in steps]
            else:
                expected = [(i, j, k) for i in steps for j in steps for k in steps]
            assert origins == expected
            assert all(type(c) is int for o in origins for c in o)


class TestEngineAgainstOracle:
    """The whole-lattice engine gives exactly the per-cube hoelder_norm."""

    @pytest.mark.parametrize("spec, h", [
        (SPEC, 1),
        (SPEC, 2),
        (LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2), 1),  # cubes wrap round
        (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2), 1),
        (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2), 2),
        (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3), 3),
    ])
    @pytest.mark.parametrize("tau", [0, 1])
    def test_profile_equals_per_cube_norms(self, spec, h, tau):
        layer = sample_layer(spec, h, 11)
        origins, norms = layer_norm_profile(layer, tau=tau)
        _, side = pavement_cubes(spec, h)
        assert norms == [hoelder_norm(layer.z, spec, o, side, tau) for o in origins]

    @pytest.mark.parametrize("spec, h, B_grid", [
        (SPEC, 2, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]),
        (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2), 2, [0.8, 1.0, 1.2, 1.4, 1.6]),
    ])
    def test_tail_maxima_equal_per_sample_loop(self, spec, h, B_grid):
        stats = tail_stats(spec, h, B_grid=B_grid, n_samples=1000, seed=5, tau=1)
        loop = [max(layer_norm_profile(sample_layer(spec, h, 5 + i), level=h, tau=1)[1])
                for i in range(1000)]
        assert np.array_equal(stats["maxima"], np.array(loop))

    @pytest.mark.parametrize("chunk_sites", [None, 3 * 81], ids=["default", "partial_last_chunk"])
    @pytest.mark.parametrize("spec", [
        LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3),
        LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2),
    ])
    def test_batched_sampling_equals_single_draws(self, spec, chunk_sites, monkeypatch):
        # one unbatched half-spectrum filter per seed, the sampler written out;
        # 3 * 81 sites per chunk is three 9^2 samples (40 seeds end on a
        # chunk of one) and one 8^3 sample
        if chunk_sites is not None:
            monkeypatch.setattr(field_sampler, "_CHUNK_SITES", chunk_sites)
        h, seeds = 2, range(40, 80)
        n = spec.n_side
        root_w = np.sqrt(_range_weights(spec, h - 1, h)[..., :n // 2 + 1]) * spec.a ** (-spec.d / 2.0)
        single = []
        for s in seeds:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(h,)))
            noise = rng.standard_normal(spec.shape)
            single.append(np.fft.irfftn(root_w * np.fft.rfftn(noise), s=spec.shape,
                                      axes=tuple(range(spec.d))))
        batch = np.concatenate(list(_band_fields(spec, h, seeds)))
        assert np.array_equal(batch, np.stack(single))
        assert np.array_equal(sample_layer(spec, h, 41).values, single[1])

    @pytest.mark.parametrize("spec, h", [
        (LatticeSpec(d=2, L=8.0, m=1.0, gamma=2.0, N=4), 2),  # 128^2
        (LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3), 3),  # 8^3
        (LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2), 1),  # 9^2, odd side
    ])
    def test_half_spectrum_equals_full_complex_filter(self, spec, h):
        # the real part of the full complex FFT filter of the same noise
        seed = 7
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(h,)))
        noise = rng.standard_normal(spec.shape)
        root_w = np.sqrt(_range_weights(spec, h - 1, h))
        full = np.fft.ifftn(root_w * np.fft.fftn(noise)).real * spec.a ** (-spec.d / 2.0)
        values = sample_layer(spec, h, seed).values
        assert np.max(np.abs(values - full)) <= 1e-14 * np.max(np.abs(full))


def _brute_force_norm(layer, origin, side, eps=0.25):
    """max of |z_x| + |z_x - z_eta| / |x - eta|^eps over x in the cube and
    eta at torus distance below 1/m, by a plain double loop over sites."""
    spec, z, n = layer.spec, layer.z, layer.spec.n_side
    best = 0.0
    for offset in np.ndindex((side,) * spec.d):
        x = tuple((o + k) % n for o, k in zip(origin, offset))
        best = max(best, abs(z[x]))
        for eta in np.ndindex(spec.shape):
            r = math.sqrt(sum((min(abs(u - v), n - abs(u - v)) * spec.a) ** 2
                              for u, v in zip(x, eta)))
            if 0 < r < 1.0 / spec.m:
                best = max(best, abs(z[x]) + abs(z[x] - z[eta]) / r ** eps)
    return best


CUBE8 = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3)  # 511 short displacements
CUBE4 = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)  # 63
ODD9 = LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2)  # odd side, cubes wrap round


@pytest.fixture(params=[1, 7 * CUBE8.n_sites], ids=["one_per_block", "seven_per_8cube_block"])
def block_budget(request, monkeypatch):
    """Small blocks of displacements: one per block, or seven on 8^3 so that
    blocks end inside the rows of eight displacements along the last axis."""
    monkeypatch.setattr(field_sampler, "_CHUNK_SITES", request.param)


def _torus_distance(spec, delta):
    return math.sqrt(sum(((min(c, spec.n_side - c) * spec.a) ** 2 for c in delta)))


def _rolled_pair_fields(fld, h, eps=0.25):
    """(delta, Y^(h) at delta) over the short displacements in C order, one
    np.roll of phi^(<=h) each."""
    spec, p = fld.spec, fld.phi(h)
    for delta in np.ndindex(spec.shape):
        r = _torus_distance(spec, delta)
        if 0 < r < 1.0 / spec.m:
            shifted = np.roll(p, [-c for c in delta], axis=tuple(range(spec.d)))
            yield delta, (p - shifted) / (spec.gamma ** h * r) ** eps


def _rolled_pair_regions(fld, h, B):
    """D2 from the rolled loop: (eta, eta + delta) where |Y^(h)| > B h^4,
    displacements in C order outer, sites in C order inner."""
    n = fld.spec.n_side
    return [(eta, tuple((c + dc) % n for c, dc in zip(eta, delta)))
            for delta, y in _rolled_pair_fields(fld, h)
            for eta in np.ndindex(fld.spec.shape) if abs(y[eta]) > B * h ** 4]


class TestBlockEngine:
    """Blocks of displacements give exactly the one-displacement-at-a-time
    results, whatever the block size."""

    @pytest.mark.parametrize("spec, h", [(CUBE8, 1), (CUBE8, 3), (ODD9, 1)])
    def test_profile_equals_per_cube_norms(self, block_budget, spec, h):
        layer = sample_layer(spec, h, 4)
        origins, norms = layer_norm_profile(layer, tau=1)
        _, side = pavement_cubes(spec, h)
        assert norms == [hoelder_norm(layer.z, spec, o, side, tau=1) for o in origins]

    @pytest.mark.parametrize("h", [1, 3])
    def test_Y_equals_rolled_loop(self, block_budget, h):
        fld = make_field(CUBE8, seed=6)
        disps, Y = fld.Y(h)
        rolled = list(_rolled_pair_fields(fld, h))
        assert [tuple(delta) for delta in disps.tolist()] == [delta for delta, _ in rolled]
        assert np.array_equal(Y, np.stack([y for _, y in rolled]))

    def test_pair_regions_equal_rolled_loop(self, block_budget):
        fld = make_field(CUBE8, seed=2)
        h, B = 2, 0.02
        expected = _rolled_pair_regions(fld, h, B)
        assert len(set(expected)) > 1000
        assert classify_regions(fld, h, B).D2 == expected

    def test_pair_regions_only_in_some_blocks(self, block_budget):
        # |Y| at -delta is |Y| at delta shifted, so the per-displacement
        # maxima come in equal pairs; a threshold between the fourth and
        # fifth largest leaves hits at four of the 511 displacements, and one
        # above every |Y| leaves no pair at all
        fld = make_field(CUBE8, seed=2)
        h = 2
        rolled = list(_rolled_pair_fields(fld, h))
        tops = sorted((float(np.max(np.abs(y))) for _, y in rolled), reverse=True)
        B = (tops[3] + tops[4]) / 2 / h ** 4
        expected = _rolled_pair_regions(fld, h, B)
        hit_disps = {tuple(np.subtract(etap, eta) % CUBE8.n_side) for eta, etap in expected}
        assert len(hit_disps) == 4
        assert classify_regions(fld, h, B).D2 == expected
        assert classify_regions(fld, h, 1.01 * tops[0] / h ** 4).D2 == []

    def test_d3_tail_maxima_equal_per_sample_loop(self, block_budget):
        # with seven 8^3 lattices per block the last chunk holds two samples,
        # which take 28 displacements per block
        h, seed, n = 2, 9, 1010
        stats = tail_stats(CUBE4, h, B_grid=[0.8, 1.0, 1.2, 1.4, 1.6], n_samples=n,
                           seed=seed, tau=1)
        # one cube covering the whole lattice: its norm is the sample's maximum
        loop = [hoelder_norm(sample_layer(CUBE4, h, seed + i).z, CUBE4, (0, 0, 0),
                             CUBE4.n_side, tau=1) for i in range(n)]
        assert np.array_equal(stats["maxima"], np.array(loop))

    def test_site_norms_with_sample_axis(self, block_budget):
        zs = np.stack([sample_layer(CUBE8, 1, 30 + i).z for i in range(2)])
        expected = np.abs(zs)
        for delta in np.ndindex(CUBE8.shape):
            r = _torus_distance(CUBE8, delta)
            if 0 < r < 1.0 / CUBE8.m:
                shifted = np.roll(zs, [-c for c in delta], axis=(1, 2, 3))
                np.maximum(expected, np.abs(zs) + np.abs(zs - shifted) / r ** 0.25,
                           out=expected)
        assert np.array_equal(field_sampler._site_norms(zs, CUBE8, 1), expected)

    def test_displacement_table_is_cached_and_read_only(self):
        disps, dists = _short_displacements(CUBE8)
        assert _short_displacements(CUBE8)[0] is disps
        assert disps.shape == (CUBE8.n_sites - 1, 3) and len(dists) == len(disps)
        for arr in (disps, dists):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0


class TestRegions:
    def test_huge_threshold_gives_small_field(self):
        fld = make_field()
        cls = classify_regions(fld, 1, 1e6)
        assert cls.chi_B == 1
        assert not cls.D1 and not cls.R

    def test_tiny_threshold_flags_sites(self):
        fld = make_field()
        cls = classify_regions(fld, 1, 1e-9)
        assert cls.chi_B == 0
        assert cls.R

    def test_chi_B_must_match_bad_cubes(self):
        with pytest.raises(ValueError):
            RegionClassification(B=1.0, h=1, D1=[], D2=[], R=[(0, 0)], chi_B=1)
        with pytest.raises(ValueError):
            RegionClassification(B=1.0, h=1, D1=[], D2=[], R=[], chi_B=0)

    def test_d2_has_no_pair_regions(self):
        fld = make_field()
        assert classify_regions(fld, 1, 1.0).D2 == []

    def test_pair_regions_match_explicit_loop(self):
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3)
        fld = make_field(spec, seed=2)
        h, B = 2, 0.02
        cls = classify_regions(fld, h, B)
        disps, Y = fld.Y(h)
        expected = []
        for k, delta in enumerate(disps):
            for eta in np.ndindex(spec.shape):
                if abs(Y[k][eta]) > B * h ** 4:
                    etap = tuple((c + int(dd)) % spec.n_side for c, dd in zip(eta, delta))
                    expected.append((eta, etap))
        assert expected
        assert cls.D2 == expected

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            classify_regions(make_field(), 5, 1.0)

    def test_pair_cap_refuses_before_the_list_passes_it(self, monkeypatch):
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3)
        fld = make_field(spec, seed=2)
        n_pairs = len(classify_regions(fld, 2, 0.02).D2)
        monkeypatch.setattr(field_sampler, "MAX_D2_PAIRS", n_pairs)
        assert len(classify_regions(fld, 2, 0.02).D2) == n_pairs
        monkeypatch.setattr(field_sampler, "MAX_D2_PAIRS", n_pairs - 1)
        with pytest.raises(InfeasibleSizeError, match="MAX_D2_PAIRS"):
            classify_regions(fld, 2, 0.02)


class TestTails:
    def test_exceedance_decreases_in_B(self):
        stats = tail_stats(SPEC, 1, B_grid=[0.3, 0.8, 1.5, 2.5], n_samples=1000)
        probs = [row["exceedance"] for row in stats["rows"]]
        assert probs == sorted(probs, reverse=True)
        # Gaussian tails: log-exceedance decreasing in B^2
        assert stats["slope"] < 0

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            tail_stats(SPEC, 1, B_grid=[1.0], n_samples=10)
