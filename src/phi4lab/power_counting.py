"""Cluster trees over scale-labeled graphs and convergence of scale sums.

A scaled graph carries one scale label per line.  A cluster of scale h is a
maximal set of vertices connected by lines of scale >= h, at least one of
which has scale exactly h; single graph-element vertices are trivial clusters
pinned at scale N+1 and the root carries the conventional scale k = 0.  The
per-node statistics feed the power-counting exponent

    rho_v = -d + (4 - d) n_v + r_v (d + 2)/2 + (d - 2)/2 n_e_v

whose positivity on every nontrivial node decides convergence of the sum over
scale assignments; in d=3 the (n, r, n_e) = (2, 0, 2) chain clusters gain the
renormalization improvement rho_bar = rho + 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .feynman_graphs import FeynmanGraph, _components

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
    """Build the unique cluster hierarchy of a connected scaled graph."""
    g = sg.graph
    if not g.connected:
        raise ValueError("cluster trees require a connected graph")
    k = len(g.elements)
    lines = g.lines()
    # components under lines of scale >= h, for each h present
    nodes = []
    for h in sorted(set(sg.line_scales)):
        comp = _components(k, [l for l, s in zip(lines, sg.line_scales) if s >= h])
        for members in comp:
            if any(s == h and set(l) <= members
                   for l, s in zip(lines, sg.line_scales)):
                nodes.append(ClusterNode(h=h, vertices=frozenset(members)))
    for v in range(k):
        nodes.append(ClusterNode(h=sg.N + 1, vertices=frozenset([v]), trivial=True))
    root = ClusterNode(h=0, vertices=frozenset(range(k)))
    # nest by vertex-set inclusion, ties broken by scale
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
    _fill_stats(tree, sg)
    return tree


def _fill_stats(tree: ClusterTree, sg: ScaledGraph):
    g = sg.graph
    lines = g.lines()
    kinds = [e.kind for e in g.elements]
    for v in tree.root.walk():
        v.s = len(v.children)
        v.n = sum(1 for i in v.vertices if kinds[i] == "coupling")
        v.r = sum(1 for i in v.vertices if kinds[i] == "external")
        v.n_e = sum((u in v.vertices) != (w in v.vertices) for u, w in lines)
    # a line is "inner" to the innermost nontrivial cluster containing both
    # endpoints (trivial leaves and the root are not clusters of the graph)
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
