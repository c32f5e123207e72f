import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4lab import (
    LatticeSpec,
    covariance_band,
    covariance_cumulative,
    counterterms,
    logZ_series,
    wick_power,
    bare_potential,
    truncated_integrate,
    relevant_split,
    field_independent_part,
    remainder_bound,
    flow_constant,
)
from phi4lab.lattice_propagator import InfeasibleSizeError
from phi4lab.effective_potential import (
    PotentialFunctional,
    local_coefficients,
    remainder_partial_sums,
    wick_quartic_potential,
)
from phi4lab.feynman_graphs import _joined_patterns

import dense_potential as dense
from graph_reference import components


REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
LAM = 0.1


class TestWickPowers:
    def test_quartic_coefficients(self):
        assert wick_power(4, 0.5) == {4: 1.0, 2: -6 * 0.5, 0: 3 * 0.25}

    def test_quadratic_coefficients(self):
        assert wick_power(2, 0.7) == {2: 1.0, 0: -0.7}

    def test_zero_variance_is_plain_power(self):
        assert wick_power(4, 0.0) == {4: 1.0, 2: -0.0, 0: 0.0}

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            wick_power(10, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(k=st.sampled_from([2, 4, 6]), c=st.floats(0.1, 2.0))
    def test_gaussian_mean_vanishes(self, k, c):
        # sum_q coeff_q E[phi^q] over N(0, c) must be zero by construction
        coeffs = wick_power(k, c)
        moment = {0: 1.0, 2: c, 4: 3 * c ** 2, 6: 15 * c ** 3}
        total = sum(w * moment[q] for q, w in coeffs.items())
        assert abs(total) < 1e-12 * max(abs(w) for w in coeffs.values())


class TestFunctionalAlgebra:
    def test_step_joins_copies_and_truncates_order(self):
        V = PotentialFunctional(REF, 2)
        V.add(1, (), 2.0)
        V.add(2, (), 5.0)
        V.add(1, (1,), np.ones(REF.n_sites))
        cov = covariance_band(REF, 2).matrix()
        out = truncated_integrate(V, 2)
        # constants join no copy and pass through; two linear copies join by
        # one line: E^T(V, V) / 2! = sum_xy C(x, y) / 2 at order 2
        assert out.blocks[(1, ())] == 2.0
        assert out.blocks[(2, ())] == pytest.approx(5.0 + cov.sum() / 2)
        assert set(out.blocks) == {(1, ()), (2, ()), (1, (1,))}
        assert set(truncated_integrate(V, 1).blocks) == {(1, ()), (1, (1,))}

    def test_evaluate_matches_kernel_contraction(self):
        V = bare_potential(REF, None, counterterms(REF, LAM), LAM, jmax=1)
        phi = np.linspace(-0.4, 0.5, REF.n_sites)
        w = REF.a ** REF.d
        cts = counterterms(REF, LAM)
        direct = -w * (np.sum(phi ** 4) + cts.mu_poly[1] * np.sum(phi ** 2)
                       + REF.n_sites * cts.nu_poly[1])
        assert V.evaluate(phi, 1.0) == pytest.approx(direct)

    def test_step_of_quadratic(self):
        V = PotentialFunctional(REF, 2)
        V.add(1, (2,), np.ones(REF.n_sites))
        cov = covariance_band(REF, 2).matrix()
        out = truncated_integrate(V, 1)
        # E[(phi+z)^2] per site = phi^2 + C(0): constant picks up the trace
        assert out.terms[(1, 0)] == pytest.approx(np.trace(cov))
        assert np.allclose(out.terms[(1, 2)], np.eye(REF.n_sites))

    def test_dense_view_layout(self):
        # legs (2, 1): runs of two equal indices, then one, c[y_0, y_1]
        V = PotentialFunctional(REF, 2)
        c = np.arange(16.0).reshape(4, 4)
        V.add(2, (2, 1), c)
        V.add(2, (1, 2), c)
        ker = V.terms[(2, 3)]
        want = np.zeros((4, 4, 4))
        for x, y in itertools.product(range(4), repeat=2):
            want[x, x, y] += c[x, y]
            want[x, y, y] += c[x, y]
        assert np.array_equal(ker, want)
        assert list(V.terms) == [(2, 3)] and (2, 2) not in V.terms
        with pytest.raises(KeyError):
            V.terms[(2, 2)]

    def test_size_guard_before_allocation(self, monkeypatch):
        monkeypatch.setattr("phi4lab.effective_potential.MAX_TENSOR_ENTRIES", 4 ** 3)
        V = PotentialFunctional(REF, 2)
        V.add(1, (4,), np.ones(4))
        V.add(1, (2, 2), np.ones((4, 4)))
        with pytest.raises(InfeasibleSizeError, match="MAX_TENSOR_ENTRIES"):
            truncated_integrate(V, 2)  # the 4^4-entry (2, 2, 2, 2) product
        with pytest.raises(InfeasibleSizeError, match="MAX_TENSOR_ENTRIES"):
            V.terms[(1, 4)]  # the 4^4-entry dense view
        assert V.kernel_norms() == {(1, 4): 1.0}


def times(A, B, jmax):
    """Product of two functionals truncated to lambda-order jmax: vertex
    lists concatenate and coefficients take the outer product."""
    out = PotentialFunctional(A.spec, A.h)
    for (o1, l1), c1 in A.blocks.items():
        for (o2, l2), c2 in B.blocks.items():
            if o1 + o2 <= jmax:
                out.add(o1 + o2, l1 + l2, np.multiply.outer(c1, c2))
    return out


def at_most_order_one(V):
    """V with every block of order above 1 moved to order 1, so that the
    k = 1 term of a j = 1 step, its Gaussian expectation, keeps it."""
    out = PotentialFunctional(V.spec, V.h)
    for (o, legs), c in V.blocks.items():
        out.add(min(o, 1), legs, c)
    return out


def _partial_pairings(k):
    """All sets of disjoint index pairs of range(k), including the empty set."""
    def rec(ix):
        if not ix:
            yield ()
            return
        first, rest = ix[0], ix[1:]
        yield from rec(rest)
        for i in range(len(rest)):
            for sub in rec(rest[:i] + rest[i + 1:]):
                yield ((first, rest[i]),) + sub
    yield from rec(list(range(k)))


def pairing_sum(terms, cov):
    """Oracle for a Gaussian expectation: every partial pairing of each kernel's indices
    contracted with cov by one einsum, the unpaired indices left in order."""
    letters = "abcdefghijklmnopqrst"
    out = {}
    for (o, k), ker in terms.items():
        ker = np.asarray(ker)
        if not np.any(ker):
            # every pairing of a zero kernel contracts to exactly zero
            for q in range(k // 2 + 1):
                out.setdefault((o, k - 2 * q), np.zeros(ker.shape[2 * q:]))
            continue
        for pairing in _partial_pairings(k):
            keep = [i for i in range(k) if all(i not in pr for pr in pairing)]
            subs = [letters[:k]] + [letters[i1] + letters[i2] for i1, i2 in pairing]
            expr = ",".join(subs) + "->" + "".join(letters[i] for i in keep)
            term = np.einsum(expr, ker, *[cov] * len(pairing), optimize=True)
            key = (o, len(keep))
            out[key] = out[key] + term if key in out else term
    return out


def assert_matches_pairing_sum(V, got, cov):
    """``got``, the expectation of V over a layer of covariance ``cov``,
    equals the pairing sum entry by entry, within 1e-13 of the entry's sum
    of absolute pairing contributions (its rounding scale)."""
    got = got.terms
    want = pairing_sum(V.terms, cov)
    scale = pairing_sum({key: np.abs(ker) for key, ker in V.terms.items()}, np.abs(cov))
    assert got.keys() == want.keys()
    for key in want:
        if key[1] == 0:
            assert isinstance(got[key], float)
        err = np.abs(np.asarray(got[key]) - want[key])
        assert np.all(err <= 1e-13 * scale[key]), (key, np.max(err / scale[key]))


class TestGaussExpectOracle:
    def test_random_kernels_mixed_orders(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        # gauss_expect reads only the kernels and cov: 3-site kernels in a REF container
        V = dense.PotentialFunctional(REF, 2)
        for degree in range(9):
            for order in (degree % 3, 3):
                V.add_term(order, degree, float(rng.normal()) if degree == 0
                           else rng.normal(size=(3,) * degree))
        assert_matches_pairing_sum(V, V.gauss_expect(cov, 1), cov)

    def test_random_dense_kernels_through_one_copy(self):
        # a dense kernel of degree k is the block of k one-leg vertices; at
        # orders <= 1 a j = 1 step is the k = 1 term, the expectation alone
        rng = np.random.default_rng(7)
        V = PotentialFunctional(REF, 2)
        for degree in range(9):
            for order in (0, 1):
                V.add(order, (1,) * degree, float(rng.normal()) if degree == 0
                      else rng.normal(size=(REF.n_sites,) * degree))
        cov = covariance_band(REF, 2).matrix()
        assert_matches_pairing_sum(V, truncated_integrate(V, 1), cov)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("f", [None, (0.6, -0.4, 0.2, 0.5)])
    def test_every_step_of_ref_flow(self, j, f):
        cts = counterterms(REF, LAM, nu_order=j)
        V = bare_potential(REF, None if f is None else np.asarray(f), cts, LAM, jmax=j)
        for h in range(REF.N, 0, -1):
            cov = covariance_band(REF, h).matrix()
            for W in [V] + [times(V, V, j)] * (j >= 2):
                W = at_most_order_one(W)
                assert_matches_pairing_sum(W, truncated_integrate(W, 1), cov)
            V = truncated_integrate(V, j)


def copying_truncated_integrate(V, j, cov):
    """One dense recursion step with a fresh functional for every sum and scaling."""
    def plus(a, b):
        out = a.copy()
        for (o, k), ker in b.terms.items():
            out.add_term(o, k, ker)
        return out

    def scaled(a, factor):
        out = dense.PotentialFunctional(a.spec, a.h)
        for (o, k), ker in a.terms.items():
            out.add_term(o, k, ker * factor)
        return out

    m1 = V.gauss_expect(cov, V.h - 1)
    out = m1.truncate(j)
    if j >= 2:
        V2 = V.times(V, j)
        m2 = V2.gauss_expect(cov, V.h - 1)
        out = plus(out, scaled(plus(m2, scaled(m1.times(m1, j), -1.0)), 0.5))
    if j >= 3:
        m3 = V2.times(V, j).gauss_expect(cov, V.h - 1)
        cross = scaled(m1.times(m2, j), -3.0)
        cube = scaled(m1.times(m1, j).times(m1, j), 2.0)
        out = plus(out, scaled(plus(plus(m3, cross), cube), 1.0 / 6.0))
    return out.truncate(j)


class TestInPlaceCumulants:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_copying_sums(self, j, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        # 3-site kernels in a REF container; random gaps in the (order, degree)
        # grid leave terms that only one side of a sum has
        V = dense.PotentialFunctional(REF, 2)
        for order in range(4):
            for degree in range(3):
                if rng.random() < 0.8:
                    V.add_term(order, degree, float(rng.normal()) if degree == 0
                               else rng.normal(size=(3,) * degree))
        got, want = V, V.copy()
        # a second j = 3 step would exceed the kernel size guard
        for _ in range(2 if j < 3 else 1):
            got = dense.truncated_integrate(got, j, cov)
            want = copying_truncated_integrate(want, j, cov)
            # the term order decides the summation order of the next step
            assert list(got.terms) == list(want.terms)
            for key, ker in want.terms.items():
                assert np.asarray(got.terms[key]).tobytes() == np.asarray(ker).tobytes()


def absolute(V):
    """The dense oracle functional of the engine's |coefficients|, summed
    block by block: each entry bounds the |entry| of V's dense view."""
    A = PotentialFunctional(V.spec, V.h, {key: np.abs(c) for key, c in V.blocks.items()})
    return dense.PotentialFunctional(V.spec, V.h, dict(A.terms))


def rounding_scale(V, j):
    """The dense oracle's step, cumulants by moments, on |coefficients| and
    |C| with every term added: per kernel, the size of the terms its entries
    sum, which sets their rounding error (the engine's connected terms are
    a part of them).  Kernels that cancel down to that error (renormalized
    constants, the quadratic kernel at h = 0, the oracle's disconnected
    kernels) have a largest |entry| far below it.  Sums are taken in place,
    as in ``dense.truncated_integrate``."""
    A = absolute(V)
    cov = np.abs(covariance_band(V.spec, V.h).matrix())
    m1 = A.gauss_expect(cov, V.h - 1)
    out = m1.truncate(j)
    if j >= 2:
        A2 = A.times(A, j)
        m2 = A2.gauss_expect(cov, V.h - 1)
        out = out.add_into(m2.add_into(m1.times(m1, j)).scale(0.5))
    if j >= 3:
        third = A2.times(A, j).gauss_expect(cov, V.h - 1).add_into(m1.times(m2, j).scale(3.0))
        cube = m1.times(m1, j).times(m1, j).scale(2.0)
        out = out.add_into(third.add_into(cube).scale(1.0 / 6.0))
    return out


def assert_views_match(V, D, scale):
    """Every entry of every (order, degree) kernel of the engine's dense view
    equals the oracle's within 1e-12 of the larger of the oracle kernel's and
    the ``scale`` kernel's largest |entry|; a key one side lacks is zero."""
    for key in dict.fromkeys([*D.terms, *V.terms]):
        err, size = _largest_entries(key, V, D, scale)
        assert err <= 1e-12 * size, (key, err, size)


def _largest_entries(key, V, D, scale):
    """Largest |V - D| and largest |D| or |scale| entry of one kernel, a slab
    at a time: no temporary the size of a 64-site quartic kernel."""
    err = size = 0.0
    for g, w, s in zip(*np.broadcast_arrays(*(np.atleast_1d(X.terms.get(key, 0.0))
                                               for X in (V, D, scale)))):
        err = max(err, float(np.max(np.abs(g - w))))
        size = max(size, float(np.max(np.abs(w))), float(np.max(np.abs(s))))
    return err, size


def monomials(X, key):
    """One (order, degree) kernel of X's dense view as polynomial
    coefficients: its entries summed over index orderings, a slab at a time.
    Multi-index (i_1, ..., i_k) has monomial id sum_a (k + 1)^(i_a), each
    site's multiplicity a digit in base k + 1; a key X lacks is zero."""
    n, k = X.spec.n_sites, key[1]
    ker = np.broadcast_to(X.terms.get(key, 0.0), (n,) * k)
    if k == 0:
        return np.array([float(ker)])
    digits = (k + 1) ** np.arange(n)
    rest = sum(np.ix_(*[digits] * (k - 1)), 0)
    return sum(np.bincount(np.ravel(rest + d), weights=np.ravel(slab), minlength=(k + 1) ** n)
               for d, slab in zip(digits, ker))


def assert_polynomials_match(V, D, scale):
    """Every monomial coefficient of every (order, degree) kernel of the
    engine equals the oracle's within 1e-12 of the larger of the oracle's
    and the ``scale`` kernel's largest coefficient; a key one side lacks is
    zero.  Entries alone may differ: the oracle's cumulants by moments and
    the engine's connected blocks spread equal coefficients over different
    index orderings."""
    for key in dict.fromkeys([*D.terms, *V.terms]):
        want = monomials(D, key)
        err = np.max(np.abs(monomials(V, key) - want))
        size = max(np.max(np.abs(want)), np.max(monomials(scale, key)))
        assert err <= 1e-12 * size, (key, err, size)


def paired_flow(spec, j, f, steps=None):
    """The engine's and the oracle's flows from the same bare potential:
    (V, D, scale) before the first step and after each one."""
    cts = counterterms(spec, LAM, nu_order=j)
    f = None if f is None else np.asarray(f)
    V = bare_potential(spec, f, cts, LAM, jmax=j)
    D = dense.bare_potential(spec, f, cts, LAM, jmax=j)
    yield V, D, absolute(V)
    for _ in range(spec.N if steps is None else steps):
        scale = rounding_scale(V, j)
        V, D = truncated_integrate(V, j), dense.truncated_integrate(D, j)
        yield V, D, scale


REF_F = (0.6, -0.4, 0.2, 0.5)
FOUR = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
REF3 = LatticeSpec(d=3, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)  # 8 sites


class TestDenseOracle:
    @pytest.mark.parametrize("j, f", [(1, None), (1, REF_F), (2, None), (2, REF_F)])
    def test_every_step_matches_dense_engine(self, j, f):
        # the oracle's extra kernels are its disconnected ones, zero to rounding
        for V, D, scale in paired_flow(REF, j, f):
            assert set(V.terms) <= set(D.terms)
            assert_views_match(V, D, scale)

    def test_order_three_matches_dense_polynomials(self):
        for V, D, scale in paired_flow(FOUR, 3, None):
            assert set(V.terms) <= set(D.terms)
            assert_polynomials_match(V, D, scale)

    def test_sourced_order_three_flow(self):
        # one dense j = 3 step with a source is as far as the oracle goes
        for V, D, scale in paired_flow(REF, 3, REF_F, steps=1):
            assert_polynomials_match(V, D, scale)
        V = truncated_integrate(V, 3)
        assert V.h == 0 and all(np.any(c) for c in V.blocks.values())

    def test_one_step_on_64_sites(self):
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
        # no order-1 kernel cancels before h = 0: the oracle's own entries
        # set the scale, and no third 64^4 kernel is built
        cts = counterterms(spec, LAM, nu_order=1)
        V, D = bare_potential(spec, None, cts, LAM, jmax=1), dense.bare_potential(
            spec, None, cts, LAM, jmax=1)
        assert_views_match(V, D, D)
        V, D = truncated_integrate(V, 1), dense.truncated_integrate(D, 1)
        assert_views_match(V, D, D)
        assert V.h == 1 and all(len(legs) == 1 for _, legs in V.blocks if legs)

    @pytest.mark.parametrize("spec, j, f", [(REF, 2, REF_F), (REF3, 1, None),
                                            (REF3, 1, REF_F * 2)])  # an 8-site source
    def test_relevant_split_matches_dense_formula(self, spec, j, f):
        # the scales h = N..1 that rgflow splits; sigma is 0 at h = 0 in d = 2
        for V, D, scale in paired_flow(spec, j, f, steps=spec.N - 1):
            got, want = relevant_split(V, LAM), dense.relevant_split(D, LAM)
            for part in ("rel1", "rel2", "irr"):
                assert_views_match(getattr(got, part), getattr(want, part), scale)
            size = dense.relevant_split(scale, LAM).coefficients
            for name, value in want.coefficients.items():
                bound = 1e-12 * max(abs(value), abs(size[name]))
                assert abs(got.coefficients[name] - value) <= bound, (name, V.h)
            # what rgflow reports, with no pair block built
            assert local_coefficients(V, LAM) == got.coefficients
        assert (2, 2) in got.rel2.terms or spec.d == 2


def line_patterns(legs):
    """Every (factors, r, w) line pattern of vertices with ``legs`` free legs,
    by brute force: every multiset of lines over all vertex pairs, in
    ``itertools.product`` order, those with more lines than legs at a vertex
    giving no self-pairs and so no pattern."""
    pairs = list(itertools.combinations(range(len(legs)), 2))
    out = []
    for ks in itertools.product(*(range(min(legs[a], legs[b]) + 1) for a, b in pairs)):
        left = [x - sum(k for p, k in zip(pairs, ks) if a in p) for a, x in enumerate(legs)]
        for ts in itertools.product(*(range(x // 2 + 1) for x in left)):
            r = tuple(x - 2 * t for x, t in zip(left, ts))
            den = math.prod(2 ** t * math.factorial(t) * math.factorial(x) for t, x in zip(ts, r))
            w = math.prod(map(math.factorial, legs)) // (den * math.prod(map(math.factorial, ks)))
            lines = tuple((p, k) for p, k in zip(pairs, ks) if k)
            out.append((tuple(((a,), t) for a, t in enumerate(ts) if t) + lines, r, float(w)))
    return tuple(out)


def joined_patterns_oracle(copy_legs):
    """The ``line_patterns`` of the copies' vertices whose lines join the
    copies into one component, by union-find over the copies."""
    owner = [i for i, x in enumerate(copy_legs) for _ in x]

    def joined(factors):
        lines = [(owner[ab[0]], owner[ab[1]]) for ab, _ in factors if len(ab) == 2]
        return len(components(len(copy_legs), lines)) == 1
    return tuple(p for p in line_patterns(sum(copy_legs, ())) if joined(p[0]))


def flow_copy_legs(j, f):
    """Every copy-leg tuple a step of the REF flow integrates: for k = 1..j
    copies, each ordered choice of blocks whose orders sum to at most j."""
    cts = counterterms(REF, LAM, nu_order=j)
    V = bare_potential(REF, None if f is None else np.asarray(f), cts, LAM, jmax=j)
    found = set()
    for _ in range(REF.N):
        for k in range(1, j + 1):
            for copies in itertools.product(V.blocks, repeat=k):
                if sum(o for o, _ in copies) <= j:
                    found.add(tuple(legs for _, legs in copies))
        V = truncated_integrate(V, j)
    return sorted(found)


class TestConnectedBlocks:
    def test_joined_patterns_link_the_copies(self):
        # one copy: every pattern; two one-vertex copies: a line between them
        assert _joined_patterns(((4, 2),)) == line_patterns((4, 2))
        assert _joined_patterns(((4,), (2,))) == tuple(
            p for p in line_patterns((4, 2)) if any(ab == (0, 1) for ab, _ in p[0]))
        # a line inside copy 1 joins nothing; copies 0 and 2 meet only through it
        for factors, _, _ in _joined_patterns(((1,), (2, 2), (1,))):
            lines = {ab for ab, _ in factors if len(ab) == 2}
            assert lines & {(0, 1), (0, 2)} and lines & {(1, 3), (2, 3)}
        # a leg-free copy joins nothing, and three single legs cannot join three copies
        assert _joined_patterns(((4,), (), (4,))) == _joined_patterns(((1,), (1,), (1,))) == ()
        assert _joined_patterns(((),)) == (((), (), 1.0),)

    @pytest.mark.parametrize("copy_legs", [
        ((4,), (4,), (4,)), ((1,), (2, 2), (1,)), ((3, 1), (1,), (2,)), ((2,), (1, 1), (4,)),
        ((1,), (1,), (2,)), ((4,), (), (4,)), ((3, 3), (1,), (1,))])
    def test_three_copies_match_brute_force(self, copy_legs):
        assert _joined_patterns(copy_legs) == joined_patterns_oracle(copy_legs)

    @pytest.mark.parametrize("j, f", [(1, None), (1, REF_F), (2, None), (2, REF_F)])
    def test_flow_tables_match_brute_force(self, j, f):
        # same patterns in the same order: every step sums in the same order
        for copy_legs in flow_copy_legs(j, f):
            assert _joined_patterns(copy_legs) == joined_patterns_oracle(copy_legs), copy_legs

    @pytest.mark.parametrize("j, f", [(1, None), (1, REF_F), (2, None), (2, REF_F), (3, None)])
    def test_no_cancelling_blocks(self, j, f):
        cts = counterterms(REF, LAM, nu_order=j)
        V = bare_potential(REF, None if f is None else np.asarray(f), cts, LAM, jmax=j)
        for _ in range(REF.N):
            V = truncated_integrate(V, j)
            zero = {key for key, c in V.blocks.items() if not np.any(c)}
            # at h = 0 the mass counterterm cancels the quadratic block exactly
            # unless a source feeds it at order 1 (from j = 2 on)
            assert zero <= ({(1, (2,))} if V.h == 0 else set()), (V.h, zero)
        assert f is None or j < 2 or not zero


class TestMartingale:
    def test_wick_quartic_maps_to_wick_quartic(self):
        V = wick_quartic_potential(REF, 2, covariance_cumulative(REF, 2).at_zero)
        for h in (2, 1):
            V = truncated_integrate(V, 1)
            c_low = covariance_cumulative(REF, h - 1).at_zero if h > 1 else 0.0
            ref = wick_quartic_potential(REF, h - 1, c_low)
            resid = max(
                np.max(np.abs(np.asarray(V.terms[key]) - np.asarray(ref.terms[key])))
                for key in ref.terms)
            assert resid < 1e-10

    def test_recursion_needs_a_layer(self):
        V = wick_quartic_potential(REF, 0, 0.0)
        with pytest.raises(ValueError):
            truncated_integrate(V, 1)

    def test_order_cap(self):
        V = wick_quartic_potential(REF, 2, 0.1)
        with pytest.raises(InfeasibleSizeError, match="MAX_ORDER"):
            truncated_integrate(V, 4)
        with pytest.raises(InfeasibleSizeError, match="MAX_ORDER"):
            flow_constant(REF, 0.1, None, 4)


def assert_three_way_agreement(spec, j):
    cts = counterterms(spec, LAM, nu_order=0)
    flow = flow_constant(spec, LAM, None, j, cts)
    series = logZ_series(spec, LAM, None, j, cts=cts).coefficients
    E0 = field_independent_part(spec, j, 0, LAM, None, cts, per_order=True)
    assert np.max(np.abs(flow - series)) < 1e-10 * np.max(np.abs(series))
    assert np.max(np.abs(E0 - series)) < 1e-10 * np.max(np.abs(series))


class TestThreeWayAgreement:
    def test_constants_agree_without_vacuum_counterterm(self):
        assert_three_way_agreement(REF, 2)

    def test_order_three_on_four_sites(self):
        assert_three_way_agreement(LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1), 3)

    def test_renormalized_constants_vanish(self):
        cts = counterterms(REF, LAM)
        flow = flow_constant(REF, LAM, None, 2, cts)
        assert np.max(np.abs(flow)) < 1e-12


class TestFieldIndependentPart:
    def test_full_scale_leaves_only_vacuum_counterterm(self):
        cts = counterterms(REF, LAM)
        E_N = field_independent_part(REF, 2, REF.N, LAM, None, cts, per_order=True)
        assert np.allclose(E_N, -cts.nu_poly)

    def test_magnitude_grows_as_scales_open(self):
        cts = counterterms(REF, LAM, nu_order=0)
        totals = [abs(field_independent_part(REF, 2, h, LAM, None, cts))
                  for h in range(REF.N, -1, -1)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))


class TestRelevantSplit:
    def test_bare_d2_coefficients(self):
        cts = counterterms(REF, LAM)
        V = bare_potential(REF, None, cts, LAM, jmax=1)
        split = relevant_split(V, LAM)
        h = V.h
        c_h = covariance_cumulative(REF, h).at_zero / h
        assert split.coefficients["lambda_eff"] == pytest.approx(LAM)
        # mu_bar = -6 lambda c_h, nu_bar = 3 lambda c_h^2 in X-variables
        assert split.coefficients["mu_bar"] == pytest.approx(-6 * LAM * c_h)
        assert split.coefficients["nu_bar"] == pytest.approx(3 * LAM * c_h ** 2)

    def test_split_is_exhaustive(self):
        cts = counterterms(REF, LAM)
        V = bare_potential(REF, np.array([0.3, -0.2, 0.1, 0.25]), cts, LAM, jmax=2)
        split = relevant_split(V, LAM)
        phi = np.linspace(-0.3, 0.3, REF.n_sites)
        recombined = (split.rel1.evaluate(phi, LAM) + split.rel2.evaluate(phi, LAM)
                      + split.irr.evaluate(phi, LAM))
        assert recombined == pytest.approx(V.evaluate(phi, LAM), rel=1e-12)

    def test_bare_potential_rejects_wrong_length_source(self):
        with pytest.raises(ValueError):
            bare_potential(REF, np.array([0.3, -0.2, 0.1]), counterterms(REF, LAM), LAM, jmax=1)

    def test_pair_block_empty_in_d2(self):
        V = bare_potential(REF, None, counterterms(REF, LAM), LAM, jmax=2)
        assert relevant_split(V, LAM).rel2.terms == {}

    @pytest.mark.parametrize("f", [None, np.array([0.3, -0.2, 0.1, 0.25])])
    def test_d2_scale_zero_is_rejected(self, f):
        # sigma = sqrt(h) = 0 at h = 0 in d = 2: no X-variable is defined there
        V = bare_potential(REF, f, counterterms(REF, LAM), LAM, jmax=2)
        for _ in range(REF.N):
            V = truncated_integrate(V, 2)
        assert V.h == 0
        with pytest.raises(ValueError, match="h = 0"):
            relevant_split(V, LAM)

    def test_d3_scale_zero_is_split(self):
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=1)
        V = truncated_integrate(bare_potential(spec, None, counterterms(spec, LAM), LAM,
                                               jmax=1), 1)
        assert relevant_split(V, LAM).coefficients["sigma"] == 1.0


class TestRemainderBound:
    def test_documented_value(self):
        # j=1, h=1, gamma=2, d=2: (lam h^2 / gamma^2)^2 gamma^2 with B-power 4j
        rb = remainder_bound(1, 1, 0.9, 1.0, 2, C_j=1.0, gamma=2.0)
        assert rb.value == pytest.approx((0.9 / 4.0) ** 2 * 4.0)

    def test_summability_thresholds(self):
        assert not remainder_bound(0, 1, 0.1, 1.0, 2).summable
        assert remainder_bound(1, 1, 0.1, 1.0, 2).summable
        assert not remainder_bound(2, 1, 0.1, 1.0, 3).summable
        assert remainder_bound(3, 1, 0.1, 1.0, 3).summable

    def test_partial_sums_converge_when_summable(self):
        sums = remainder_partial_sums(1, 0.1, 1.5, 2, N_max=64)
        assert sums[-1] - sums[-33] < 1e-10 * max(sums[-1], 1e-300)

    def test_partial_sums_blow_up_when_not_summable(self):
        sums = remainder_partial_sums(1, 0.1, 1.5, 3, N_max=64)
        assert sums[-1] > 1e3 * sums[31]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            remainder_bound(1, 0, 0.1, 1.0, 2)
        with pytest.raises(ValueError):
            remainder_bound(1, 1, 0.1, 1.0, 2, gamma=1.0)
