"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single ``[criterion k] PASS/FAIL`` line with the measured
quantity before asserting, so the verdicts read off the captured output (and
the pytest -v status line) directly.
"""

import math
import random

import numpy as np
import pytest

from phi4lab import (
    LatticeSpec,
    covariance_band,
    covariance_cumulative,
    counterterms,
    logZ_series,
    wick_oracle,
    enumerate_connected,
    ScaledGraph,
    TreeTopology,
    build_clusters,
    verify_identities,
    rho,
    scale_sum,
    truncated_integrate,
    field_independent_part,
    flow_constant,
    ExperimentConfig,
    estimate_Z,
    nongaussianity,
)
from phi4lab.feynman_graphs import (
    FeynmanGraph,
    GraphElement,
    _elements,
    aggregate_topologies,
    enumerate_matchings,
    integrated_value,
    mu_polynomial,
)
from phi4lab.effective_potential import remainder_partial_sums, wick_quartic_potential
from phi4lab.stability_lab import calibrate_Cj


# the reference 4-site d=2 lattice with cutoff index N=2
REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
REF_F = (0.6, -0.4, 0.2, 0.5)


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_band_decomposition_telescopes():
    worst = 0.0
    for d in (2, 3):
        for gamma in (2.0, 3.0):
            for N in range(1, 5):
                s = LatticeSpec(d=d, L=1.0, m=1.0, gamma=gamma, N=N)
                cum = covariance_cumulative(s, N).values
                total = sum(covariance_band(s, h).values for h in range(1, N + 1))
                rel = float(np.max(np.abs(total - cum)) / np.max(np.abs(cum)))
                worst = max(worst, rel)
    report(1, worst < 1e-12,
           f"band sums telescope, worst relative residual {worst:.2e}")


def test_criterion_02_wick_oracle_equivalence():
    spec = REF
    kernel = covariance_cumulative(spec, spec.N)
    M = kernel.matrix()
    f = np.asarray(REF_F)
    w = spec.a ** spec.d
    nsite = spec.n_sites
    ext = np.zeros((nsite + 1, nsite + 1))
    ext[:nsite, :nsite] = M
    ext[:nsite, nsite] = ext[nsite, :nsite] = M @ f * w
    ext[nsite, nsite] = f @ M @ f * w * w
    worst = 0.0
    families = 0
    for n in range(0, 3):
        for p in range(0, 5):
            for r in range(0, 9):
                half_count = 4 * n + 2 * p + r
                if half_count == 0 or half_count > 8 or half_count % 2:
                    continue
                elements = _elements(n, p, r)
                half = [(v, s) for v, el in enumerate(elements)
                        for s in range(el.half_lines)]
                total = 0.0
                graphs = [FeynmanGraph(elements=elements, pairing=mch)
                          for mch in enumerate_matchings(half)]
                for g, _, mult in aggregate_topologies(graphs):
                    total += mult * integrated_value(g, kernel, f, lam=1.0, mu=1.0)
                engine = total * (-1) ** (n + p + r) * math.factorial(n) \
                    * math.factorial(p) * math.factorial(r)
                oracle = 0.0
                for pos in np.ndindex(*([nsite] * (n + p))):
                    sites = []
                    for v in range(n):
                        sites += [pos[v]] * 4
                    for v in range(p):
                        sites += [pos[n + v]] * 2
                    sites += [nsite] * r
                    oracle += wick_oracle(sites, ext) * w ** (n + p)
                families += 1
                scale = max(abs(oracle), 1e-14)
                worst = max(worst, abs(engine - oracle) / scale)
    counts_ok = all(
        sum(1 for _ in enumerate_matchings(list(range(2 * k))))
        == math.prod(range(2 * k - 1, 0, -2))
        for k in range(1, 7))
    report(2, worst < 1e-10 and counts_ok,
           f"{families} graph families match the Isserlis oracle "
           f"(worst rel {worst:.2e}); pairing counts are (2k-1)!! for k<=6")


def test_criterion_03_counterterm_growth():
    # d=3: successive differences of |mu_1| grow like gamma^N
    mus3 = []
    for N in range(2, 7):
        s = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=N)
        mus3.append(abs(mu_polynomial(s)[1]))
    diffs = np.diff(mus3)
    slope3 = float(np.polyfit(np.arange(len(diffs)), np.log(diffs), 1)[0])
    target3 = math.log(2.0)
    ok3 = abs(slope3 - target3) < 0.10 * target3
    # d=2: |mu_1| affine in N with increment 6 ln(gamma)/(2 pi)
    mus2 = []
    for N in range(2, 7):
        s = LatticeSpec(d=2, L=8.0, m=1.0, gamma=2.0, N=N)
        mus2.append(abs(mu_polynomial(s)[1]))
    inc = float(np.diff(mus2)[-1])
    target2 = 6.0 * math.log(2.0) / (2.0 * math.pi)
    ok2 = abs(inc - target2) < 0.15 * target2
    report(3, ok3 and ok2,
           f"d=3 exponent {slope3:.3f} vs ln(gamma)={target3:.3f}; "
           f"d=2 increment {inc:.4f} vs 6 ln(gamma)/(2 pi)={target2:.4f}")


def _nested_figure_graph():
    """Nine elements whose cluster hierarchy shows a four-deep nesting chain
    plus two side clusters: {0,1} in {0,1,2} in {0..3} in {0..8}, with {4,5}
    and {6,7} attached below the top cluster."""
    kinds = ["external"] + ["coupling"] * 7 + ["external"]
    elements = tuple(GraphElement(kind=k, label=i) for i, k in enumerate(kinds))
    backbone = [((0, 0), (1, 0), 5), ((1, 1), (2, 0), 4), ((2, 1), (3, 0), 3),
                ((3, 1), (4, 0), 1), ((4, 1), (5, 0), 3), ((5, 1), (6, 0), 1),
                ((6, 1), (7, 0), 2), ((7, 1), (8, 0), 1)]
    loops = [((v, 2), (v, 3), s)
             for v, s in [(1, 5), (2, 4), (3, 3), (4, 3), (5, 3), (6, 2), (7, 2)]]
    pairing = tuple((a, b) for a, b, _ in backbone + loops)
    scales = tuple(s for _, _, s in backbone + loops)
    return ScaledGraph(graph=FeynmanGraph(elements=elements, pairing=pairing),
                       line_scales=scales, N=5)


def test_criterion_04_cluster_tree_identities():
    failures = 0
    rng = random.Random(20260824)
    cache = {}
    pool = [(1, 0), (1, 2), (1, 4), (2, 0), (2, 2), (3, 0)]
    for _ in range(1000):
        n, r = rng.choice(pool)
        if (n, r) not in cache:
            cache[(n, r)] = list(enumerate_connected(n, 0, r))
        g = rng.choice(cache[(n, r)])
        N = rng.randint(2, 6)
        scales = tuple(rng.randint(1, N) for _ in g.pairing)
        if not verify_identities(build_clusters(ScaledGraph(g, scales, N))).ok:
            failures += 1
    tree = build_clusters(_nested_figure_graph())
    nodes = {(tuple(sorted(nd.vertices)), nd.h) for nd in tree.nontrivial_nodes()}
    expected = {((0, 1), 5), ((0, 1, 2), 4), ((0, 1, 2, 3), 3),
                ((4, 5), 3), ((6, 7), 2), (tuple(range(9)), 1)}
    figure_ok = (nodes == expected and len(tree.leaves()) == 9
                 and verify_identities(tree).ok)
    report(4, failures == 0 and figure_ok,
           f"1000 fuzzed trees, {failures} identity failures; nested figure "
           f"hierarchy and identities verified")


def test_criterion_05_power_counting_verdicts():
    chain_rho, chain_bar = rho(2, 0, 2, 3)
    improved = scale_sum(TreeTopology(n=2, r=0, n_e=2), d=3, gamma=2.0)
    plain = scale_sum(TreeTopology(n=2, r=0, n_e=2), d=3, gamma=2.0,
                      N_max=(4, 8, 16), improve=False)
    ratio_8 = plain.finite_sums[8] / plain.finite_sums[4]
    ratio_16 = plain.finite_sums[16] / plain.finite_sums[8]
    linear_growth = abs(ratio_8 - 2.0) < 0.5 and abs(ratio_16 - 2.0) < 0.25 \
        and abs(ratio_16 - 2.0) < abs(ratio_8 - 2.0) + 1e-12
    single = scale_sum(TreeTopology(n=2, r=0, n_e=0), d=2, gamma=2.0)
    ok = (chain_rho == 0.0 and chain_bar == 0.5
          and improved.classification == "convergent" and improved.limit is not None
          and plain.limit is None and linear_growth
          and abs(single.limit - 1.0 / 3.0) < 1e-14)
    report(5, ok,
           f"chain (rho, rho_bar)=({chain_rho}, {chain_bar}), improved sum "
           f"finite; unimproved ratios {ratio_8:.3f}, {ratio_16:.3f} -> linear; "
           f"single-node sum {single.limit:.12f} = 1/3")


def test_criterion_06_martingale_property():
    V = wick_quartic_potential(REF, REF.N, covariance_cumulative(REF, REF.N).at_zero)
    worst = 0.0
    for h in range(REF.N, 0, -1):
        V = truncated_integrate(V, 1)
        c_low = covariance_cumulative(REF, h - 1).at_zero if h > 1 else 0.0
        target = wick_quartic_potential(REF, h - 1, c_low)
        for key in target.terms:
            worst = max(worst, float(np.max(np.abs(
                np.asarray(V.terms[key]) - np.asarray(target.terms[key])))))
    report(6, worst < 1e-10,
           f"order-1 recursion maps the Wick quartic to the Wick quartic at "
           f"every scale, residual kernel norm {worst:.2e}")


def test_criterion_07_three_way_agreement():
    lam = 0.1
    cts = counterterms(REF, lam, nu_order=0)  # keep the constants nonzero
    flow = flow_constant(REF, lam, None, 2, cts)
    series = logZ_series(REF, lam, None, 2, cts=cts).coefficients
    E0 = np.asarray(field_independent_part(REF, 2, 0, lam, None, cts,
                                           per_order=True))
    scale = np.max(np.abs(series))
    worst = max(np.max(np.abs(flow - series)), np.max(np.abs(E0 - series)),
                np.max(np.abs(flow - E0))) / scale
    report(7, worst < 1e-8,
           f"iterated recursion constant, difference-kernel E(2,0) and the "
           f"order-2 series agree pairwise to {worst:.2e} relative")


def test_criterion_08_stability_envelope():
    lams = [0.01, 0.02, 0.05]
    gaps = []
    all_inside = True
    for lam in lams:
        cfg = ExperimentConfig(spec=REF, lam=lam, f=REF_F, j=1, seed=1)
        rep = estimate_Z(cfg, C_j=calibrate_Cj(cfg))
        gaps.append(abs(rep.value - rep.series_value))
        all_inside = all_inside and rep.inside
    slope = float(np.polyfit(np.log(lams), np.log(gaps), 1)[0])
    report(8, all_inside and abs(slope - 2.0) < 0.3,
           f"quadrature inside the remainder envelope at all three couplings; "
           f"discrepancy log-log slope {slope:.3f} (expect 2 +- 0.3)")


def test_criterion_09_non_gaussianity():
    cfg = ExperimentConfig(spec=REF, lam=0.02, f=REF_F, j=1)
    res = nongaussianity(cfg)
    ok = res["kappa4"] < 0 and res["relative_gap"] < 0.10
    report(9, ok,
           f"fourth cumulant {res['kappa4']:.3e} < 0, within "
           f"{100 * res['relative_gap']:.1f}% of the order-lambda prediction")


def test_criterion_10_summability_thresholds():
    mismatches = []
    for d in (2, 3):
        for j in range(0, 5):
            predicted = (4 - d) * (j + 1) > d
            sums = remainder_partial_sums(j, 0.1, 1.5, d, gamma=4.0, N_max=64)
            tail = (sums[-1] - sums[31]) / max(sums[-1], 1e-300)
            converged = tail < 1e-6
            if converged != predicted:
                mismatches.append((d, j))
    report(10, not mismatches,
           f"partial sums over N<=64 are Cauchy exactly when (4-d)(j+1)>d "
           f"(d=2: j>=1, d=3: j>=3); mismatches: {mismatches}")
