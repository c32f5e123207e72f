"""Cluster trees over scale-labeled graphs and convergence of scale sums.

A scaled graph carries one scale label per line.  A cluster of scale h is a
maximal set of vertices connected by lines of scale >= h, at least one of
which has scale exactly h; single graph-element vertices are trivial clusters
pinned at scale N+1 and the root carries the conventional scale k = 0.  The
tree is built by one union-find sweep from the highest scale down, and the
per-node statistics it sums feed the power-counting exponent

    rho_v = -d + (4 - d) n_v + r_v (d + 2)/2 + (d - 2)/2 n_e_v

whose positivity on every nontrivial node decides convergence of the sum over
scale assignments; in d=3 the (n, r, n_e) = (2, 0, 2) chain clusters gain the
renormalization improvement rho_bar = rho + 1/2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .feynman_graphs import FeynmanGraph, _merges, _root

__all__ = [
    "ScaledGraph",
    "ClusterNode",
    "ClusterTree",
    "PowerCountingVerdict",
    "build_clusters",
    "verify_identities",
    "rho",
    "scale_sum",
    "divergence_scan",
    "TreeTopology",
]


@dataclass(frozen=True)
class ScaledGraph:
    """A connected Feynman graph with one scale label in 1..N per line."""

    graph: FeynmanGraph
    line_scales: tuple
    N: int

    def __post_init__(self):
        if len(self.line_scales) != len(self.graph.pairing):
            raise ValueError("one scale label per line is required")
        if any(not 1 <= h <= self.N for h in self.line_scales):
            raise ValueError("line scales must lie in 1..N")


@dataclass
class ClusterNode:
    """One cluster: vertex set, scale, children, and power-counting statistics."""

    h: int
    vertices: frozenset
    children: list = field(default_factory=list)
    trivial: bool = False
    s: int = 0        # immediate subclusters
    n: int = 0        # coupling elements inside
    r: int = 0        # external elements inside
    n_e: int = 0      # lines external to the cluster
    n_inner: int = 0  # half-lines paired inside, not inside inner clusters

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class ClusterTree:
    """Rooted cluster hierarchy; the root is the conventional scale-0 node."""

    root: ClusterNode
    N: int

    def nontrivial_nodes(self):
        return [v for v in self.root.walk() if v is not self.root and not v.trivial]

    def leaves(self):
        return [v for v in self.root.walk() if v.trivial]


def build_clusters(sg: ScaledGraph) -> ClusterTree:
    """Build the unique cluster hierarchy of a connected scaled graph.

    One union-find sweep over the distinct scales, highest first: the
    scale-h lines are joined, and every tree they touch becomes a node at h
    whose children are the top nodes of the trees merged into it, in order
    of (size, -scale, least vertex).  A node sums its children's statistics;
    the lines whose ends first meet in it are its inner ones and leave its
    children's external lines.
    """
    g = sg.graph
    lines = g.lines()
    ends = Counter(x for l in lines if l[0] != l[1] for x in l)
    top = [ClusterNode(h=sg.N + 1, vertices=frozenset([v]), trivial=True, n_e=ends[v],
                       n=int(e.kind == "coupling"), r=int(e.kind == "external"))
           for v, e in enumerate(g.elements)]
    parent = list(range(len(top)))
    at_scale = {}
    for l, h in zip(lines, sg.line_scales):
        at_scale.setdefault(h, []).append(l)
    merged, pending = 0, lines
    for h in sorted(at_scale, reverse=True):
        old = {_root(parent, v) for l in at_scale[h] for v in l}
        merged += _merges(parent, at_scale[h])
        kids = {}
        for t in old:
            kids.setdefault(_root(parent, t), []).append(top[t])
        for t, cs in kids.items():
            cs.sort(key=lambda c: (len(c.vertices), -c.h, min(c.vertices)))
            top[t] = ClusterNode(h=h, vertices=frozenset().union(*(c.vertices for c in cs)),
                                 children=cs, s=len(cs), n=sum(c.n for c in cs),
                                 r=sum(c.r for c in cs), n_e=sum(c.n_e for c in cs))
        left = []
        for u, w in pending:
            t = _root(parent, u)
            if t == _root(parent, w) and not top[t].trivial:
                top[t].n_inner += 2
                top[t].n_e -= 2 * (u != w)
            else:
                left.append((u, w))
        pending = left
    if merged != len(top) - 1:
        raise ValueError("cluster trees require a connected graph")
    first = top[_root(parent, 0)]
    root = ClusterNode(h=0, vertices=first.vertices, children=[first], s=1, n=first.n, r=first.r)
    return ClusterTree(root=root, N=sg.N)


@dataclass
class IdentityReport:
    """Both sides of the two exact cluster-tree identities."""

    lhs_subclusters: int
    rhs_subclusters: int
    lhs_halflines: int
    rhs_halflines: int

    @property
    def ok(self) -> bool:
        return (self.lhs_subclusters == self.rhs_subclusters
                and self.lhs_halflines == self.rhs_halflines)


def verify_identities(tree: ClusterTree, k: int = 0) -> IdentityReport:
    """Check the exact integer identities relating scales, subclusters and lines.

    sum_v (h_v - k)(s_v - 1) = sum_v (h_v - h_parent)(n_v + r_v - 1)
    sum_v (h_v - k) n_inner_v = sum_v (h_v - h_parent)(4 n_v + r_v - n_e_v)

    with v running over the nontrivial clusters above the root.
    """
    lhs1 = rhs1 = lhs2 = rhs2 = 0
    parents = {}
    for v in tree.root.walk():
        for c in v.children:
            parents[id(c)] = v
    for v in tree.nontrivial_nodes():
        hp = parents[id(v)].h if id(v) in parents else k
        lhs1 += (v.h - k) * (v.s - 1)
        rhs1 += (v.h - hp) * (v.n + v.r - 1)
        lhs2 += (v.h - k) * v.n_inner
        rhs2 += (v.h - hp) * (4 * v.n + v.r - v.n_e)
    return IdentityReport(lhs1, rhs1, lhs2, rhs2)


def rho(n: int, r: int, n_e: int, d: int):
    """Power-counting exponent rho and its d=3 improved variant rho_bar."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    value = -d + (4 - d) * n + r * (d + 2) / 2.0 + (d - 2) / 2.0 * n_e
    improved = value
    if d == 3 and (n, r, n_e) == (2, 0, 2):
        improved = value + 0.5
    return value, improved


@dataclass
class TreeTopology:
    """A nested topology without scale labels: per-node stats plus children."""

    n: int
    r: int
    n_e: int
    children: list = field(default_factory=list)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class PowerCountingVerdict:
    """Exponents, classification and scale sums for one tree topology."""

    exponents: list            # (rho, rho_bar) per node in walk order
    classification: str        # convergent | marginal | divergent
    finite_sums: dict          # N_max -> exact sum
    limit: float | None        # closed form as N -> infinity, when convergent


def scale_sum(topology: TreeTopology, d: int, gamma: float = 2.0,
              N_max=(4, 8, 16), improve: bool = True) -> PowerCountingVerdict:
    """Exact scale-label sums and convergence verdict for a tree topology.

    Sums prod_v gamma^(-rho_v (h_v - h_parent)) over hierarchically increasing
    scale assignments with the root pinned at 0.  The infinite-cutoff value is
    the product of geometric series (increments are independent on a tree) and
    exists exactly when every node exponent is positive.
    """
    nodes = list(topology.walk())
    exps = []
    for nd in nodes:
        rv, rb = rho(nd.n, nd.r, nd.n_e, d)
        exps.append((rv, rb if improve else rv))
    eff = [e[1] for e in exps]
    if any(e < 0 for e in eff):
        cls = "divergent"
    elif any(e == 0 for e in eff):
        cls = "marginal"
    else:
        cls = "convergent"

    exp_of = {id(nd): e for nd, e in zip(nodes, eff)}

    def dp2(node, h_parent, N):
        rv = exp_of[id(node)]
        total = 0.0
        for h in range(h_parent + 1, N + 1):
            part = gamma ** (-rv * (h - h_parent))
            for c in node.children:
                sub = dp2(c, h, N)
                part *= sub
            total += part
        return total

    finite = {int(N): dp2(topology, 0, int(N)) for N in N_max}
    limit = None
    if cls == "convergent":
        limit = 1.0
        for e in eff:
            x = gamma ** (-e)
            limit *= x / (1.0 - x)
    return PowerCountingVerdict(exponents=exps, classification=cls,
                                finite_sums=finite, limit=limit)


def divergence_scan(d: int) -> list:
    """Catalog of minimal divergent/marginal subgraph classes in dimension d.

    Scans per-cluster statistics (n, r, n_e) reachable by phi^4 subgraphs and
    reports every class with rho <= 0, noting which are cured by the local
    counterterms, which need the d=3 chain subtraction, and the d=4 and d>=5
    diagnoses (classes recur at every order / non-renormalizable).
    """
    if d not in (2, 3, 4, 5):
        raise ValueError("scan supports d in {2,3,4,5}")
    entries = []
    for n in range(1, 4):
        for n_e in range(0, 4 * n + 1, 2):
            if n_e > 4 * n - 2 * (n - 1):
                continue  # not achievable by a connected quartic subgraph
            value, improved = rho(n, 0, n_e, d)
            if value > 0:
                continue
            names = {(1, 2): "tadpole", (1, 0): "vacuum-1", (2, 0): "vacuum-2",
                     (3, 0): "vacuum-3", (2, 2): "chain", (2, 4): "bubble"}
            name = names.get((n, n_e), f"class(n={n},ne={n_e})")
            cure = None
            if d <= 3:
                if n_e == 0:
                    cure = "constant counterterm"
                elif (n, n_e) == (1, 2):
                    cure = "quadratic counterterm"
                elif d == 3 and (n, n_e) == (2, 2):
                    cure = "chain subtraction (improved exponent +1/2)"
            elif d == 4:
                cure = "not cured: recurs at every order, quartic counterterm series needed"
            else:
                cure = "not cured: no formal counterterm series exists"
            entries.append({
                "name": name, "n": n, "n_e": n_e,
                "rho": value, "rho_bar": improved,
                "class": ("divergent" if improved < 0
                          else "marginal" if improved == 0 else "convergent"),
                "cure": cure,
            })
    return entries
