import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lab import (
    LatticeSpec,
    covariance_cumulative,
    difference_kernel,
    enumerate_connected,
    counterterms,
    flow_constant,
    wick_oracle,
    logZ_series,
    renormalized_chain_value,
)
from phi4lab import feynman_graphs
from phi4lab.feynman_graphs import (
    FeynmanGraph,
    _canonical_lines,
    _elements,
    _joined_patterns,
    aggregate_topologies,
    enumerate_matchings,
    integrated_value,
    monomial_sites,
    mu_polynomial,
    vacuum_density_poly,
)
from phi4lab.lattice_propagator import MAX_MATRIX_SITES, InfeasibleSizeError, PropagatorKernel


SPEC = LatticeSpec(d=2, L=1.0, m=1.0, gamma=math.sqrt(2), N=2)
REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)  # 4 sites
CUBE = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=1)  # 8 sites
KERNEL = covariance_cumulative(SPEC, 2)
M = KERNEL.matrix()


def double_factorial(k):
    out = 1
    for i in range(2 * k - 1, 0, -2):
        out *= i
    return out


class TestEnumeration:
    def test_pairing_counts_are_double_factorials(self):
        for k in range(1, 7):
            count = sum(1 for _ in enumerate_matchings(list(range(2 * k))))
            assert count == double_factorial(k)

    def test_single_vertex_has_three_matchings(self):
        assert len(list(enumerate_connected(1, 0, 0))) == 3

    def test_two_vertex_connected_count(self):
        graphs = list(enumerate_connected(2, 0, 0))
        assert len(graphs) == 96  # of 7!! = 105 total matchings

    def test_two_vertex_topologies(self):
        tops = aggregate_topologies(enumerate_connected(2, 0, 0))
        mults = sorted(mult for _, _, mult in tops)
        assert mults == [24, 72]  # sunset and dumbbell-with-loops

    def test_two_externals_single_line(self):
        assert len(list(enumerate_connected(0, 0, 2))) == 1

    def test_odd_half_line_count_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(0, 0, 3))


class TestWickOracle:
    def test_phi4_moment(self):
        assert wick_oracle([0] * 4, M) == pytest.approx(3 * KERNEL.at_zero ** 2)

    def test_odd_moment_vanishes(self):
        assert wick_oracle([0, 0, 1], M) == 0.0

    def test_mixed_moment(self):
        # E[phi_x^2 phi_y^2] = C00^2 + 2 C_xy^2
        got = wick_oracle(monomial_sites([(0, 2), (1, 2)]), M)
        assert got == pytest.approx(M[0, 0] ** 2 + 2 * M[0, 1] ** 2)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            wick_oracle([0] * 14, M)

    @settings(max_examples=20, deadline=None)
    @given(sites=st.lists(st.integers(0, 3), min_size=2, max_size=8))
    def test_matches_recursive_isserlis_reference(self, sites):
        def reference(ix):
            if not ix:
                return 1.0
            if len(ix) % 2:
                return 0.0
            first, rest = ix[0], ix[1:]
            return sum(M[first, rest[i]] * reference(rest[:i] + rest[i + 1:])
                       for i in range(len(rest)))
        assert wick_oracle(sites, M) == pytest.approx(reference(tuple(sites)), abs=1e-12)


MOMENT_FAMILIES = [(1, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (2, 0, 0),
                   (1, 0, 2), (0, 1, 2), (0, 0, 2), (0, 0, 4), (1, 0, 4)]


class TestFamilyMoments:
    """Aggregated labeled-matching sums reproduce raw Gaussian moments."""

    @pytest.mark.parametrize("n,p,r", MOMENT_FAMILIES)
    def test_engine_equals_oracle_moment(self, n, p, r):
        f = np.array([0.8, -0.5, 0.3, 0.1])
        w = SPEC.a ** SPEC.d
        # engine: sum over all matchings, graph weights normalized back
        elements = _elements(n, p, r)
        half = [(v, s) for v, el in enumerate(elements)
                for s in range(el.half_lines)]
        total = 0.0
        graphs = [FeynmanGraph(elements=elements, pairing=m)
                  for m in enumerate_matchings(half)]
        for g, _, mult in aggregate_topologies(graphs):
            total += mult * integrated_value(g, KERNEL, f, lam=1.0, mu=1.0)
        engine = total * (-1) ** (n + p + r) * math.factorial(n) \
            * math.factorial(p) * math.factorial(r)
        # oracle: extend the covariance with the source-coupled variable
        # g = a^d sum_x f_x phi_x and read the moment off directly
        nsite = SPEC.n_sites
        ext = np.zeros((nsite + 1, nsite + 1))
        ext[:nsite, :nsite] = M
        ext[:nsite, nsite] = ext[nsite, :nsite] = M @ f * w
        ext[nsite, nsite] = f @ M @ f * w * w
        oracle = 0.0
        for pos in np.ndindex(*([nsite] * (n + p))):
            sites = []
            for v in range(n):
                sites += [pos[v]] * 4
            for v in range(p):
                sites += [pos[n + v]] * 2
            sites += [nsite] * r
            oracle += wick_oracle(sites, ext) * w ** (n + p)
        assert engine == pytest.approx(oracle, rel=1e-10, abs=1e-14)


class TestCounterterms:
    def test_mu_poly_d2_is_tadpole_only(self):
        mp = mu_polynomial(SPEC)
        assert mp[1] == pytest.approx(-6 * KERNEL.at_zero)
        assert mp[2] == 0.0

    def test_mu_poly_d3_has_chain_part(self):
        s3 = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
        mp = mu_polynomial(s3)
        k3 = covariance_cumulative(s3, 2)
        assert mp[2] == pytest.approx(48 * np.sum(k3.values ** 3) * s3.a ** 3)

    def test_order1_vacuum_density_closed_form(self):
        # nu_1 = 3 lambda C00^2 after the tadpole insertion cancels the -6 term
        poly = vacuum_density_poly(SPEC, KERNEL, mu_polynomial(SPEC), 1)
        assert poly[1] == pytest.approx(3 * KERNEL.at_zero ** 2)

    def test_counterterms_cancel_vacuum_series(self):
        cts = counterterms(SPEC, 0.1)
        coeffs = logZ_series(SPEC, 0.1, None, 2, cts=cts).coefficients
        assert np.max(np.abs(coeffs)) < 1e-12

    def test_order_cap_refuses_before_enumeration(self, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("enumeration started")
        spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        monkeypatch.setattr(feynman_graphs, "mu_polynomial", enumerate_nothing)
        monkeypatch.setattr(feynman_graphs, "vacuum_density_poly", enumerate_nothing)
        with pytest.raises(InfeasibleSizeError, match="MAX_ORDER"):
            counterterms(spec, 0.1, nu_order=4)
        with pytest.raises(InfeasibleSizeError, match="MAX_ORDER"):
            logZ_series(spec, 0.1, None, 4)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            counterterms(SPEC, -0.1)


class TestSeriesOracles:
    def test_gaussian_shift_oracle_orders_0_and_1(self):
        f = np.array([0.8, -0.5, 0.3, 0.1])
        cts = counterterms(SPEC, 0.1)
        sr = logZ_series(SPEC, 0.1, f, 1, cts=cts)
        w = SPEC.a ** SPEC.d
        vol = SPEC.n_sites * w
        s = -M @ f * w
        c00 = KERNEL.at_zero
        mu1 = cts.mu_poly[1]
        o0 = 0.5 * w ** 2 * f @ M @ f
        o1 = -w * (np.sum(3 * c00 ** 2 + 6 * c00 * s ** 2 + s ** 4)
                   + mu1 * np.sum(c00 + s ** 2)
                   + SPEC.n_sites * cts.nu_poly[1])
        assert sr.coefficients[0] == pytest.approx(o0 / vol, rel=1e-12)
        assert sr.coefficients[1] == pytest.approx(o1 / vol, rel=1e-12)

    def test_total_evaluates_polynomial(self):
        cts = counterterms(SPEC, 0.1, nu_order=0)
        sr = logZ_series(SPEC, 0.1, None, 2, cts=cts)
        expect = sum(c * 0.1 ** k for k, c in enumerate(sr.coefficients))
        assert sr.total(0.1) == pytest.approx(expect)

    def test_series_without_source_has_no_odd_content(self):
        cts = counterterms(SPEC, 0.1, nu_order=0)
        with_zero_f = logZ_series(SPEC, 0.1, np.zeros(4), 2, cts=cts)
        without = logZ_series(SPEC, 0.1, None, 2, cts=cts)
        assert np.allclose(with_zero_f.coefficients, without.coefficients)


@functools.lru_cache(maxsize=None)
def _gauss_hermite_grid(spec, g):
    """Nodes phi (one row per node) and weights of the isotropic g-point
    Gauss-Hermite rule over the eigenbasis of the cutoff covariance: exact
    for polynomials in phi of degree up to 2 g - 1."""
    evals, basis = np.linalg.eigh(covariance_cumulative(spec, spec.N).matrix())
    x, wx = np.polynomial.hermite_e.hermegauss(g)
    nodes = np.array(list(itertools.product(x, repeat=spec.n_sites)))
    weights = np.prod(np.array(list(itertools.product(wx / math.sqrt(2 * math.pi),
                                                      repeat=spec.n_sites))), axis=1)
    return nodes * np.sqrt(evals) @ basis.T, weights


def _exact_moment_series(spec, cts, f, j, g):
    """(1/|Lambda|) log Z(f)/Z(0) per lambda-order through j: on the grid, the
    lambda-series of exp(U(phi + s)) with s = -a^d C f and
    U = -a^d sum_x (lambda phi^4 + mu(lambda) phi^2 + nu(lambda)), averaged,
    its logarithm taken as a series, plus 1/2 a^(2d) f.C.f at order 0."""
    C = covariance_cumulative(spec, spec.N).matrix()
    w, f = spec.a ** spec.d, np.asarray(f, dtype=float)
    phi, weights = _gauss_hermite_grid(spec, g)
    phi = phi - w * C @ f
    q2, q4 = np.sum(phi ** 2, axis=1), np.sum(phi ** 4, axis=1)
    U = np.zeros((j + 1, len(phi)))  # U = sum_k U[k] lambda^k, U[0] = 0
    U[1] -= w * q4
    for k in range(1, j + 1):
        U[k] -= w * (cts.mu_poly[k] * q2 if k < len(cts.mu_poly) else 0.0)
        U[k] -= w * spec.n_sites * (cts.nu_poly[k] if k < len(cts.nu_poly) else 0.0)
    E = [np.ones(len(phi))]  # exp(U) = sum_k E[k] lambda^k
    for k in range(1, j + 1):
        E.append(sum(i * U[i] * E[k - i] for i in range(1, k + 1)) / k)
    moments = [float(weights @ e) for e in E]
    logs = [0.5 * w * w * float(f @ C @ f)]
    for k in range(1, j + 1):
        logs.append(moments[k] - sum(i * logs[i] * moments[k - i] for i in range(1, k)) / k)
    return np.array(logs) / (spec.n_sites * w)


MOMENT_CASES = ([("ref", "fixed", j) for j in (1, 2, 3)]
                + [("ref", "uniform", j) for j in (1, 2, 3)]
                + [("cube", "uniform", j) for j in (1, 2)])


class TestExactMoments:
    @pytest.mark.parametrize("lattice,source,j", MOMENT_CASES)
    def test_sourced_series_matches_gauss_hermite_moments(self, lattice, source, j):
        # 7 nodes per mode integrate degree 13 >= 4j on 4 sites, 5 degree 9 on 8
        spec, g = (REF, 7) if lattice == "ref" else (CUBE, 5)
        f = (np.array([0.6, -0.4, 0.2, 0.5]) if source == "fixed"
             else np.random.default_rng(1).uniform(-1.0, 1.0, spec.n_sites))
        cts = counterterms(spec, 0.05, nu_order=j)
        want = _exact_moment_series(spec, cts, f, j, g)
        got = logZ_series(spec, 0.05, f, j, cts=cts).coefficients
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestChainSubtraction:
    def test_subtracted_chain_is_smaller_in_d3(self):
        s3 = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
        k3 = covariance_cumulative(s3, 2)
        raw = renormalized_chain_value(k3, (0, 0, 0), (1, 0, 0), subtract=False)
        sub = renormalized_chain_value(k3, (0, 0, 0), (1, 0, 0), subtract=True)
        assert abs(sub) < abs(raw)


# --- topology invariant against the relabeling brute force -------------------

def _brute_orbit(lines, kinds):
    """Every image of a line multiset under all relabelings of same-kind vertices."""
    groups = {}
    for i, k in enumerate(kinds):
        groups.setdefault(k, []).append(i)
    orbit = set()
    for combo in itertools.product(*[itertools.permutations(ix) for ix in groups.values()]):
        mapping = {}
        for orig_ix, perm in zip(groups.values(), combo):
            for a, b in zip(orig_ix, perm):
                mapping[a] = b
        orbit.add(tuple(sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in lines)))
    return orbit


def _brute_least(raws, kinds):
    """Least relabeled image of each raw multiset, each orbit searched once."""
    least = {}
    for raw in raws:
        if raw not in least:
            orbit = _brute_orbit(raw, kinds)
            least.update(dict.fromkeys(orbit, min(orbit)))
    return least


def _raw_lines(g):
    return tuple(sorted(tuple(sorted(l)) for l in g.lines()))


def _brute_aggregate(graphs, least):
    """The aggregation with buckets keyed by the brute-force least image."""
    buckets = {}
    for g in graphs:
        raw = _raw_lines(g)
        if least[raw] not in buckets:
            buckets[least[raw]] = [g, raw, 0]
        buckets[least[raw]][2] += 1
    return [(g, raw, count) for g, raw, count in buckets.values()]


ORACLE_FAMILIES = sorted(
    {(n, p, r) for n in range(3) for p in range(5) for r in range(9)
     if 0 < 4 * n + 2 * p + r <= 8 and r % 2 == 0}
    | {(2, 1, 2), (1, 2, 2), (3, 0, 2), (2, 2, 0), (1, 3, 0), (0, 4, 0),
       (2, 0, 2), (2, 0, 4), (1, 1, 4)})


class TestTopologyInvariant:
    @pytest.mark.parametrize("n,p,r", ORACLE_FAMILIES)
    def test_invariant_and_aggregation_match_brute_force(self, n, p, r):
        elements = _elements(n, p, r)
        kinds = tuple(e.kind for e in elements)
        half = [(v, s) for v, el in enumerate(elements) for s in range(el.half_lines)]
        graphs = [FeynmanGraph(elements=elements, pairing=m)
                  for m in enumerate_matchings(half)]
        raws = {_raw_lines(g) for g in graphs}
        least = _brute_least(raws, kinds)
        by_invariant, by_orbit = {}, {}
        for raw in raws:
            by_invariant.setdefault(_canonical_lines(raw, kinds), set()).add(raw)
            by_orbit.setdefault(least[raw], set()).add(raw)
        assert sorted(map(sorted, by_invariant.values())) \
            == sorted(map(sorted, by_orbit.values()))
        assert aggregate_topologies(graphs) == _brute_aggregate(graphs, least)


def _hex(values):
    return [float(x).hex() for x in np.atleast_1d(values)]


class TestMemoSafety:
    F = np.array([0.8, -0.5, 0.3, 0.1])

    def _numbers(self, kernel=None):
        cts = counterterms(SPEC, 0.05, nu_order=2)
        return (_hex(cts.mu_poly) + _hex(cts.nu_poly)
                + _hex(logZ_series(SPEC, 0.05, self.F, 2, kernel=kernel, cts=cts).coefficients)
                + _hex(logZ_series(SPEC, 0.05, None, 2, kernel=kernel, cts=cts).coefficients))

    def test_repeated_call_is_bit_identical(self):
        _joined_patterns.cache_clear()
        first = self._numbers()
        assert _joined_patterns.cache_info().currsize > 0
        assert self._numbers() == first

    def test_cache_does_not_key_on_the_kernel(self):
        diff = difference_kernel(SPEC, 1)
        _joined_patterns.cache_clear()
        cold = self._numbers(kernel=diff)
        _joined_patterns.cache_clear()
        self._numbers()
        assert self._numbers(kernel=diff) == cold


# every (n, p, r) with n + p >= 1 and at most 12 half-lines, and (2,0,6)
COUNT_FAMILIES = [(n, p, r) for n in range(4) for p in range(7) for r in range(0, 13, 2)
                  if n + p and 4 * n + 2 * p + r <= 12] + [(2, 0, 6)]


def test_pattern_weights_count_connected_matchings():
    # the r external legs of a connected (n, p, r) matching sit on the free
    # legs of one joined pattern of n quartic and p mass copies, in r! orders
    assert len(COUNT_FAMILIES) == 44
    nonzero = 0
    for n, p, r in COUNT_FAMILIES:
        weights = sum(w for _, left, w in _joined_patterns(((4,),) * n + ((2,),) * p)
                      if sum(left) == r)
        count = len(enumerate_connected(n, p, r))
        assert math.factorial(r) * weights == count, (n, p, r)
        nonzero += count > 0
    assert nonzero == 31


SERIES_SPECS = [REF,
                LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2),
                LatticeSpec(d=3, L=0.25, m=4.0, gamma=math.sqrt(2), N=2),
                CUBE,
                LatticeSpec(d=2, L=1.0, m=1.0, gamma=3.0, N=2)]  # odd side 9


def _spec_id(spec):
    return f"d{spec.d}n{spec.n_sites}" + ("" if spec.N == 2 else f"N{spec.N}")


class TestSeriesEngine:
    def test_line_free_graph_counts_positions(self):
        graph = FeynmanGraph(elements=(feynman_graphs.GraphElement("vacuum", 0),
                                       feynman_graphs.GraphElement("vacuum", 1)), pairing=())
        assert integrated_value(graph, KERNEL, None, lam=1.0) \
            == SPEC.n_sites ** 2 * SPEC.a ** (2 * SPEC.d)

    @pytest.mark.parametrize("spec", [REF, LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)],
                             ids=_spec_id)
    def test_series_builds_no_dense_matrix(self, spec, monkeypatch):
        # every pattern is summed from kernel.values by convolutions and
        # spectral dot products, up to order 3 with and without a source
        def no_matrix(kernel):
            raise AssertionError("dense matrix built")
        monkeypatch.setattr(PropagatorKernel, "matrix", no_matrix)
        monkeypatch.setattr(feynman_graphs, "_shared_matrix", no_matrix)
        cts = counterterms(spec, 0.05, nu_order=3)
        f = np.random.default_rng(6).uniform(-1.0, 1.0, spec.n_sites)
        for j in (1, 2, 3):
            vacuum = logZ_series(spec, 0.05, None, j, cts=cts).coefficients
            assert np.max(np.abs(vacuum)) <= 1e-12 * np.max(np.abs(cts.nu_poly))
            assert np.all(np.isfinite(logZ_series(spec, 0.05, f, j, cts=cts).coefficients))

    def test_order_one_builds_no_matrix_past_the_matrix_cap(self, monkeypatch):
        # 32^3 sites: every source-free order-1 graph and recursion block
        # has only self-loops, which read C(0), so no dense matrix is built
        def no_matrix(kernel):
            raise AssertionError("dense matrix built")
        monkeypatch.setattr(PropagatorKernel, "matrix", no_matrix)
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=5)
        assert spec.n_sites == 32768 > MAX_MATRIX_SITES
        cts = counterterms(spec, 0.05, nu_order=1)
        c0 = covariance_cumulative(spec, spec.N).at_zero
        assert cts.mu_poly[1] == -6.0 * c0
        assert cts.nu_poly[1] == pytest.approx(3.0 * c0 ** 2)
        series = logZ_series(spec, 0.05, None, 1, cts=cts).coefficients
        flow = flow_constant(spec, 0.05, None, 1, cts=cts)
        scale = np.max(np.abs(cts.nu_poly))
        assert np.max(np.abs(series)) <= 1e-12 * scale  # the vacuum graphs cancel
        assert np.max(np.abs(flow - series)) <= 1e-10 * scale

    @pytest.mark.parametrize("spec", SERIES_SPECS, ids=_spec_id)
    def test_cold_equals_warm(self, spec):
        f = np.random.default_rng(4).uniform(-0.5, 0.5, spec.n_sites)

        def numbers():
            out = []
            for j in (1, 2):
                cts = counterterms(spec, 0.05, nu_order=j)
                out += _hex(cts.mu_poly) + _hex(cts.nu_poly) + _hex([cts.mu, cts.nu])
                for src in (None, f):
                    out += _hex(logZ_series(spec, 0.05, src, j, cts=cts).coefficients)
            return out
        _joined_patterns.cache_clear()
        cold = numbers()
        assert _joined_patterns.cache_info().currsize > 0
        assert numbers() == cold
