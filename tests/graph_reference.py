"""Reference implementations of the graph combinatorics, kept as test oracles.

These are the straightforward forms the library's routines must match
exactly: recursive matching enumeration, set-based connected components,
the plain recursive Isserlis sum over a dense matrix, and cluster trees
nested by vertex-set inclusion with a scan over every node per line.
"""

import numpy as np

from phi4lab.feynman_graphs import FeynmanGraph, _elements, trivial_vacuum_graph
from phi4lab.power_counting import ClusterNode, ClusterTree


def enumerate_matchings(half_lines):
    """All perfect matchings of a list of distinct labeled half-lines."""
    half_lines = list(half_lines)
    if len(half_lines) % 2:
        raise ValueError("odd number of half-lines cannot be matched")
    if not half_lines:
        yield ()
        return
    first, rest = half_lines[0], half_lines[1:]
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1:]
        for sub in enumerate_matchings(remaining):
            yield ((first, partner),) + sub


def components(k, lines):
    """Vertex sets of the connected components of a graph on range(k), in
    order of each component's least vertex."""
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in lines:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for i in range(k):
        comps.setdefault(find(i), set()).add(i)
    return list(comps.values())


def connected(g):
    return len(components(len(g.elements), g.lines())) == 1


def enumerate_connected(n, p, r):
    """Every matching of the (n, p, r) elements kept by the set-based filter."""
    if (n, p, r) == (0, 0, 0):
        return [trivial_vacuum_graph()]
    elements = _elements(n, p, r)
    half_lines = [(v, s) for v, e in enumerate(elements) for s in range(e.half_lines)]
    graphs = (FeynmanGraph(elements=elements, pairing=m)
              for m in enumerate_matchings(half_lines))
    return [g for g in graphs if connected(g)]


def wick_oracle(sites, M) -> float:
    """Gaussian moment of prod_i phi_{sites[i]} by exhaustive recursive pairing
    over the dense covariance matrix M."""
    sites = list(sites)
    if len(sites) % 2:
        return 0.0
    M = np.asarray(M)

    def rec(ix):
        if not ix:
            return 1.0
        first, rest = ix[0], ix[1:]
        total = 0.0
        for i in range(len(rest)):
            pair = M[sites[first], sites[rest[i]]]
            total += pair * rec(rest[:i] + rest[i + 1:])
        return total

    return float(rec(list(range(len(sites)))))


def build_clusters(sg) -> ClusterTree:
    """Cluster tree from the components at every scale, nested by inclusion."""
    g = sg.graph
    if not connected(g):
        raise ValueError("cluster trees require a connected graph")
    k = len(g.elements)
    lines = g.lines()
    nodes = []
    for h in sorted(set(sg.line_scales)):
        comp = components(k, [l for l, s in zip(lines, sg.line_scales) if s >= h])
        for members in comp:
            if any(s == h and set(l) <= members
                   for l, s in zip(lines, sg.line_scales)):
                nodes.append(ClusterNode(h=h, vertices=frozenset(members)))
    for v in range(k):
        nodes.append(ClusterNode(h=sg.N + 1, vertices=frozenset([v]), trivial=True))
    root = ClusterNode(h=0, vertices=frozenset(range(k)))
    ordered = sorted(nodes, key=lambda nd: (len(nd.vertices), -nd.h))
    pool = [root] + sorted(nodes, key=lambda nd: (-len(nd.vertices), nd.h))
    for nd in ordered:
        parent = None
        for cand in pool:
            if cand is nd:
                continue
            if nd.vertices <= cand.vertices and (len(cand.vertices) > len(nd.vertices)
                                                 or cand.h < nd.h):
                if parent is None or (len(cand.vertices), -cand.h) < (len(parent.vertices), -parent.h):
                    parent = cand
        (parent or root).children.append(nd)
    tree = ClusterTree(root=root, N=sg.N)
    fill_stats(tree, sg)
    return tree


def fill_stats(tree, sg):
    """Per-node statistics; each line is inner to the innermost nontrivial
    cluster holding both its ends, found by a scan over every node."""
    g = sg.graph
    lines = g.lines()
    kinds = [e.kind for e in g.elements]
    for v in tree.root.walk():
        v.s = len(v.children)
        v.n = sum(1 for i in v.vertices if kinds[i] == "coupling")
        v.r = sum(1 for i in v.vertices if kinds[i] == "external")
        v.n_e = sum((u in v.vertices) != (w in v.vertices) for u, w in lines)
    candidates = [nd for nd in tree.root.walk()
                  if nd is not tree.root and not nd.trivial]
    for u, w in lines:
        best = None
        for nd in candidates:
            if u in nd.vertices and w in nd.vertices:
                if best is None or len(nd.vertices) < len(best.vertices) \
                        or (len(nd.vertices) == len(best.vertices) and nd.h > best.h):
                    best = nd
        if best is not None:
            best.n_inner += 2


def tree_signature(node):
    """Every field of every node, children in order, as nested tuples."""
    return (sorted(node.vertices), node.h, node.trivial, node.s, node.n, node.r,
            node.n_e, node.n_inner, [tree_signature(c) for c in node.children])
