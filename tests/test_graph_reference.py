"""The graph combinatorics against their reference forms, by exact equality."""

import math
import random

import numpy as np
import pytest

from phi4lab import LatticeSpec, ScaledGraph, build_clusters, covariance_cumulative
from phi4lab.feynman_graphs import enumerate_connected, enumerate_matchings, wick_oracle

import graph_reference as ref
from test_acceptance import _nested_figure_graph

REF = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
SIXTEEN = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
CUBE8 = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3)


def test_matchings_come_in_reference_order():
    for m in range(0, 13, 2):
        half = [(v // 3, v % 3) for v in range(m)]
        assert list(enumerate_matchings(half)) == list(ref.enumerate_matchings(half))


def test_connected_graphs_equal_set_based_filter():
    families = [(n, p, r) for n in range(4) for p in range(7) for r in range(13)
                if 4 * n + 2 * p + r <= 12 and r % 2 == 0]
    for n, p, r in families:
        assert enumerate_connected(n, p, r) == ref.enumerate_connected(n, p, r), (n, p, r)


def _site_lists(n_sites, rng):
    """Site lists of every degree 0..12, drawn from a few sites (many
    repeats) and from the whole lattice."""
    for degree in range(13):
        for pool in (1, 2, 3, n_sites):
            for _ in range(2 if degree > 10 else 6):
                yield [rng.randrange(min(pool, n_sites)) for _ in range(degree)]


def test_wick_oracle_equals_recursive_reference():
    rng = random.Random(14)
    M = covariance_cumulative(REF, REF.N).matrix()
    A = np.random.default_rng(14).normal(size=(7, 7))
    for cov in (M, A @ A.T):
        for sites in _site_lists(len(cov), rng):
            assert wick_oracle(sites, cov).hex() == ref.wick_oracle(sites, cov).hex(), sites


@pytest.mark.parametrize("spec", [REF, SIXTEEN, CUBE8], ids=["REF", "16", "8^3"])
def test_wick_oracle_reads_kernel_as_its_matrix(spec):
    kernel = covariance_cumulative(spec, spec.N)
    M = kernel.matrix()
    rng = random.Random(spec.n_sites)
    for sites in _site_lists(spec.n_sites, rng):
        assert wick_oracle(sites, kernel).hex() == wick_oracle(sites, M).hex(), sites


def test_wick_oracle_needs_no_dense_matrix():
    kernel = covariance_cumulative(LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=5), 5)
    assert wick_oracle([0] * 4, kernel) == 3 * kernel.at_zero ** 2


def test_cluster_trees_equal_nesting_reference():
    rng = random.Random(1985)
    pool = [(1, 0), (1, 2), (1, 4), (2, 0), (2, 2), (3, 0)]
    graphs = {nr: enumerate_connected(nr[0], 0, nr[1]) for nr in pool}
    scaled = [_nested_figure_graph()]
    for _ in range(2000):
        g = rng.choice(graphs[rng.choice(pool)])
        N = rng.randint(2, 6)
        scaled.append(ScaledGraph(g, tuple(rng.randint(1, N) for _ in g.pairing), N))
    for sg in scaled:
        assert (ref.tree_signature(build_clusters(sg).root)
                == ref.tree_signature(ref.build_clusters(sg).root)), sg
