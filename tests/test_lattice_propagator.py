import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lab import (
    LatticeSpec,
    covariance_band,
    covariance_cumulative,
    difference_kernel,
    scale_range_kernel,
    regulator_chi,
    bound_report,
)
from phi4lab.lattice_propagator import (
    _MEMO_SITES,
    InfeasibleSizeError,
    PropagatorKernel,
    _range_weights,
    _shared_matrix,
    _wrapped_windows,
)


def spec2(**kw):
    base = dict(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
    base.update(kw)
    return LatticeSpec(**base)


class TestSpecValidation:
    def test_basic_geometry(self):
        s = spec2(N=3)
        assert s.n_side == 8
        assert s.n_sites == 64
        assert s.a == pytest.approx(1.0 / 8.0)
        assert s.volume == pytest.approx(1.0)

    def test_rejects_non_integer_sites(self):
        with pytest.raises(ValueError):
            LatticeSpec(d=2, L=0.7, m=1.0, gamma=2.0, N=2)

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            spec2(gamma=1.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            spec2(d=4)

    def test_fractional_gamma_with_integer_sites(self):
        s = LatticeSpec(d=2, L=1.0, m=1.0, gamma=math.sqrt(2), N=2)
        assert s.n_side == 2

    def test_hash_is_stable_and_discriminating(self):
        assert spec2().canonical_hash() == spec2().canonical_hash()
        assert spec2().canonical_hash() != spec2(N=3).canonical_hash()


class TestRegulator:
    def test_chi_at_zero_momentum(self):
        s = spec2(N=1)
        # chi_N(0) = 1 - gamma^(-2N)
        assert regulator_chi(0.0, s) == pytest.approx(1 - 2.0 ** -2)

    def test_chi_decays_at_large_momentum(self):
        s = spec2()
        assert regulator_chi(1e8, s) < 1e-6

    def test_chi_monotone_in_cutoff(self):
        p2 = np.linspace(0.0, 30.0, 7)
        lo, hi = regulator_chi(p2, spec2(N=1)), regulator_chi(p2, spec2(N=3))
        assert np.all(hi >= lo)


class TestTelescoping:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_bands_sum_to_cumulative(self, d, gamma):
        s = LatticeSpec(d=d, L=1.0, m=1.0, gamma=gamma, N=3)
        total = sum(covariance_band(s, h).values for h in range(1, 4))
        cum = covariance_cumulative(s, 3).values
        assert np.max(np.abs(total - cum)) < 1e-12 * np.max(np.abs(cum))

    def test_difference_kernel_complements_cumulative(self):
        s = spec2(N=3)
        diff = difference_kernel(s, 1).values
        rebuilt = covariance_cumulative(s, 1).values + diff
        assert np.allclose(rebuilt, covariance_cumulative(s, 3).values, atol=1e-14)

    def test_wrappers_are_scale_ranges(self):
        s = spec2(N=3)
        assert covariance_cumulative(s, 2).band == (0, 2)
        assert covariance_band(s, 2).band == (1, 2)
        assert difference_kernel(s, 1).band == (1, 3)
        assert np.array_equal(scale_range_kernel(s, 1, 2).values,
                              covariance_band(s, 2).values)

    @pytest.mark.parametrize("lo, hi", [(-1, 1), (2, 1), (0, 4)])
    def test_scale_range_outside_cutoff_is_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            scale_range_kernel(spec2(N=3), lo, hi)

    def test_difference_kernel_at_full_scale_vanishes(self):
        s = spec2()
        assert np.max(np.abs(difference_kernel(s, s.N).values)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([2, 3]), N=st.integers(1, 3),
           gamma=st.floats(1.3, 3.0), Lm=st.integers(1, 2))
    def test_telescoping_property(self, d, N, gamma, Lm):
        try:
            s = LatticeSpec(d=d, L=float(Lm), m=1.0, gamma=gamma, N=N)
        except ValueError:
            return  # non-integer site count, not a valid geometry
        total = sum(covariance_band(s, h).values for h in range(1, N + 1))
        cum = covariance_cumulative(s, N).values
        assert np.max(np.abs(total - cum)) <= 1e-12 * max(np.max(np.abs(cum)), 1e-30)


class TestKernelStructure:
    def test_positive_mode_weights(self):
        s = spec2(N=3)
        for h in range(1, 4):
            k = covariance_band(s, h)
            assert np.all(np.asarray(k.mode_weights) >= -1e-15)

    def test_matrix_is_symmetric_translation_invariant(self):
        s = spec2()
        M = covariance_cumulative(s, 2).matrix()
        assert np.allclose(M, M.T)
        assert np.ptp(np.diag(M)) < 1e-14

    @pytest.mark.parametrize("spec", [
        LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2),  # REF, 4 sites
        LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2),
        LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3),
        LatticeSpec(d=2, L=4.0, m=1.0, gamma=1.5, N=2),  # odd side 9
    ])
    def test_matrix_equals_index_formula(self, spec):
        kernel = covariance_cumulative(spec, spec.N)
        # a table without the x -> -x symmetry of a covariance tells C[x, y]
        # from C[y, x]
        table = np.random.default_rng(3).standard_normal(spec.shape)
        idx = np.indices(spec.shape).reshape(spec.d, -1)
        diff = tuple((idx[:, :, None] - idx[:, None, :]) % spec.n_side)
        for k in (kernel, PropagatorKernel(spec, kernel.band, kernel.mode_weights, table)):
            M = k.matrix()
            assert np.array_equal(M, k.values[diff])
            assert M.flags.c_contiguous and M.flags.writeable

    @pytest.mark.parametrize("shape, d", [((3, 3), 2), ((2, 3, 3), 2), ((4, 4, 4), 3)])
    def test_wrapped_windows_are_rolls(self, shape, d):
        a = np.random.default_rng(1).standard_normal(shape)
        n, lead = shape[-1], len(shape) - d
        windows = _wrapped_windows(a, d)
        assert windows.shape == (n + 1,) * d + shape and not windows.flags.writeable
        padded = np.pad(a, [(0, 0)] * lead + [(0, n)] * d, mode="wrap")
        lattice = tuple(range(lead, len(shape)))
        view = np.lib.stride_tricks.sliding_window_view(padded, shape[lead:], axis=lattice)
        assert np.array_equal(windows, np.moveaxis(view, lattice, tuple(range(d))))
        for s in np.ndindex(windows.shape[:d]):
            assert np.array_equal(windows[s], np.roll(a, [-c for c in s], axis=lattice))

    def test_matrix_over_the_site_cap_is_refused(self, monkeypatch):
        kernel = covariance_cumulative(spec2(), 2)  # 16 sites
        monkeypatch.setattr("phi4lab.lattice_propagator.MAX_MATRIX_SITES", 16)
        assert kernel.matrix().shape == (16, 16)
        monkeypatch.setattr("phi4lab.lattice_propagator.MAX_MATRIX_SITES", 15)
        with pytest.raises(InfeasibleSizeError, match="MAX_MATRIX_SITES"):
            kernel.matrix()

    def test_kernel_is_real(self):
        s = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
        vals = covariance_cumulative(s, 2).values
        assert np.isrealobj(vals)

    def test_covariance_is_positive_semidefinite(self):
        s = spec2()
        evals = np.linalg.eigvalsh(covariance_cumulative(s, 2).matrix())
        assert evals.min() > -1e-12


MEMO_SPECS = [spec2(), LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2),
              LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)]


def _ranges(spec):
    return [(lo, hi) for lo in range(spec.N + 1) for hi in range(lo, spec.N + 1)]


class TestKernelMemo:
    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_memo_equals_fresh_build(self, spec):
        for lo, hi in _ranges(spec):
            fresh = PropagatorKernel.from_weights(spec, (lo, hi), _range_weights(spec, lo, hi))
            memo = scale_range_kernel(spec, lo, hi)
            assert memo.band == (lo, hi)
            assert memo.values.tobytes() == fresh.values.tobytes()
            assert memo.mode_weights.tobytes() == fresh.mode_weights.tobytes()

    def test_repeated_call_returns_the_memo(self):
        s = spec2()
        assert covariance_band(s, 1) is scale_range_kernel(s, 0, 1)
        assert covariance_cumulative(s, 2) is difference_kernel(s, 0)

    @pytest.mark.parametrize("name", ["values", "mode_weights"])
    def test_memo_arrays_are_read_only(self, name):
        arr = getattr(covariance_band(spec2(), 2), name)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0

    def test_replace_builds_a_new_kernel(self):
        k = covariance_cumulative(spec2(), 1)
        before = k.values.copy()
        cubed = dataclasses.replace(k, values=k.values ** 3)
        assert cubed is not k and cubed.band == k.band
        assert np.array_equal(cubed.values, before ** 3)
        assert np.array_equal(k.values, before)
        assert np.array_equal(cubed.matrix()[:, 0], (before ** 3).ravel())

    def test_cache_is_bounded(self):
        assert scale_range_kernel.cache_info().maxsize == 32

    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_cold_equals_warm(self, spec):
        def numbers():
            return [(k.values.tobytes(), k.mode_weights.tobytes(), k.matrix().tobytes())
                    for k in (scale_range_kernel(spec, lo, hi) for lo, hi in _ranges(spec))]
        warm = numbers()
        scale_range_kernel.cache_clear()
        assert scale_range_kernel.cache_info().currsize == 0
        assert numbers() == warm

    def test_bad_range_is_not_cached(self):
        before = scale_range_kernel.cache_info().currsize
        with pytest.raises(ValueError):
            scale_range_kernel(spec2(), 0, 3)
        assert scale_range_kernel.cache_info().currsize == before


class TestMatrixMemo:
    @pytest.mark.parametrize("spec", MEMO_SPECS)
    def test_shared_matrix_equals_fresh_and_is_read_only(self, spec):
        for lo, hi in _ranges(spec):
            kernel = scale_range_kernel(spec, lo, hi)
            shared = _shared_matrix(kernel)
            assert shared.tobytes() == kernel.matrix().tobytes()
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = 1.0
            assert _shared_matrix(kernel) is shared
            assert shared[0, 0] == kernel.at_zero

    def test_matrix_stays_fresh_and_writeable(self):
        kernel = covariance_cumulative(spec2(), 2)
        _shared_matrix(kernel)
        first, second = kernel.matrix(), kernel.matrix()
        assert first is not second and first.flags.writeable
        first[0, 0] = -1.0
        assert _shared_matrix(kernel)[0, 0] == kernel.at_zero

    def test_replaced_kernel_gets_its_own_matrix(self):
        # like relevant_split's W: the same spec and band, other values
        k = covariance_cumulative(spec2(), 2)
        shared = _shared_matrix(k)
        cubed = dataclasses.replace(k, values=k.values ** 3)
        assert cubed.spec == k.spec and cubed.band == k.band
        assert _shared_matrix(cubed).tobytes() == cubed.matrix().tobytes()
        assert _shared_matrix(cubed).tobytes() != shared.tobytes()
        same = dataclasses.replace(k)  # equal arrays, another object
        assert _shared_matrix(same) is not shared
        assert _shared_matrix(same) is _shared_matrix(same)
        assert _shared_matrix(k) is shared

    def test_lattice_over_the_size_bound_is_not_retained(self):
        kernel = covariance_cumulative(LatticeSpec(d=2, L=1.0, m=1.0, gamma=33.0, N=1), 1)
        assert kernel.spec.n_sites == 1089 > _MEMO_SITES
        first = _shared_matrix(kernel)
        assert not first.flags.writeable
        assert first.tobytes() == kernel.matrix().tobytes()
        assert _shared_matrix(kernel) is not first


class TestBoundReport:
    def test_decay_rate_is_positive(self):
        s = spec2(L=4.0, N=3)
        rep = bound_report(covariance_cumulative(s, 3))
        assert rep.decay_rate > 0
        assert rep.amplitude > 0

    def test_band_kernels_decay_faster_at_higher_scale(self):
        s = spec2(L=4.0, N=3)
        r1 = bound_report(covariance_band(s, 1))
        r3 = bound_report(covariance_band(s, 3))
        assert r3.decay_rate > r1.decay_rate


class TestSource:
    def test_none_is_zeros_and_tables_are_flattened(self):
        s = spec2()
        assert np.array_equal(s.source(None), np.zeros(s.n_sites))
        assert s.source(np.full(s.shape, 0.5)).shape == (s.n_sites,)

    @pytest.mark.parametrize("f", [[0.1, 0.2], np.full(16, 1.5)])
    def test_rejects_wrong_length_or_size(self, f):
        with pytest.raises(ValueError):
            spec2().source(f)
