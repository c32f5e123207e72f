"""Connected graph enumeration, graph values, counterterms and the log Z series.

The primitive object is a perfect matching of labeled half-lines (a Wick
contraction).  Quartic vertices carry 4 half-lines, quadratic (mass) vertices
2, external-field vertices 1 and the trivial vacuum vertex none.  Symmetry
factors are never hand-counted: a topology's multiplicity is the number of
labeled matchings realizing its line multisets, counted by the same
line-pattern rule (``_joined_patterns``) the recursion integrates with, and
checked against the labeled matchings themselves, which stay as the oracle
and as the input of cluster trees.  Matchings are generated from one explicit
stack of choices, and a matching over k elements is connected when a
union-find over its lines makes k - 1 merges.

The interaction convention is

    Z(f) = E[ exp(V) ],
    V = -a^d sum_x ( lambda phi_x^4 + mu phi_x^2 + nu + f_x phi_x )

so a graph with n quartic, p mass and r external vertices carries the sign
(-1)^(n+p+r) of the value formula.  The quadratic counterterm is kept as a
polynomial in lambda (first order -6 lambda C_00, second order the d=3 local
chain part), which makes order bookkeeping in the series exact.

Each (n, p, r) family's topology table and each topology's einsum plan per
(lines, kinds, n_sites) are memoized, keyed on no kernel, source or coupling.
A plan is numpy's optimize=True contraction path compiled into the pairwise
matmul/multiply steps numpy would run for it, replayed with no per-call
parsing; the counterterms and the series refuse a family whose steps pass
MAX_TENSOR_ENTRIES before they read the kernel.  A self-loop reads C(0) from
``kernel.at_zero``; the dense covariance, which the kernel keeps
(``lattice_propagator._shared_matrix``), is fetched once per sum and only
when a plan has a line between two vertices, so the order-1 source-free
sums never build it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice_propagator import (
    MAX_TENSOR_ENTRIES,
    InfeasibleSizeError,
    LatticeSpec,
    PropagatorKernel,
    _shared_matrix,
    covariance_cumulative,
)

__all__ = [
    "GraphElement",
    "FeynmanGraph",
    "Counterterms",
    "enumerate_connected",
    "enumerate_matchings",
    "aggregate_topologies",
    "integrated_value",
    "counterterms",
    "renormalized_chain_value",
    "wick_oracle",
    "logZ_series",
    "trivial_vacuum_graph",
]

HALF_LINES = {"coupling": 4, "mass": 2, "vacuum": 0, "external": 1}

MAX_INTERNAL_VERTICES = 4
MAX_ORDER = 3  # of the series, the counterterms and the recursion


def _check_order(j: int):
    if j > MAX_ORDER:
        raise InfeasibleSizeError(f"order {j} exceeds MAX_ORDER = {MAX_ORDER}")


@dataclass(frozen=True)
class GraphElement:
    """A graph element: quartic coupling, mass insertion, vacuum dot or external leg."""

    kind: str
    label: int

    def __post_init__(self):
        if self.kind not in HALF_LINES:
            raise ValueError(f"unknown element kind {self.kind!r}")

    @property
    def half_lines(self) -> int:
        return HALF_LINES[self.kind]


@dataclass(frozen=True)
class FeynmanGraph:
    """Labeled graph elements plus a perfect matching of their half-lines."""

    elements: tuple
    pairing: tuple  # pairs of (vertex_index, slot)

    @property
    def n(self) -> int:
        return sum(1 for e in self.elements if e.kind == "coupling")

    @property
    def p(self) -> int:
        return sum(1 for e in self.elements if e.kind == "mass")

    @property
    def r(self) -> int:
        return sum(1 for e in self.elements if e.kind == "external")

    def lines(self):
        """Vertex-index pairs, one per matched line."""
        return [(a[0], b[0]) for a, b in self.pairing]

    @property
    def connected(self) -> bool:
        k = len(self.elements)
        return _merges(list(range(k)), self.lines()) == k - 1


def _root(parent, i):
    """Root of vertex i in the union-find forest ``parent`` (parent[i] == i at a root)."""
    while parent[i] != i:
        i = parent[i]
    return i


def _merges(parent, lines):
    """Join the two ends of every line in the forest ``parent`` and count the
    joins that merged two trees: lines on range(k) connect it exactly when,
    from k singletons, they make k - 1 merges."""
    merged = 0
    for u, v in lines:
        u, v = _root(parent, u), _root(parent, v)
        if u != v:
            parent[u] = v
            merged += 1
    return merged


@functools.lru_cache(maxsize=None)
def _joined_patterns(copy_legs: tuple) -> tuple:
    """Every (factors, r, w) pairing some legs of the vertices of the copies
    in ``copy_legs`` (one tuple of free legs per copy) whose lines join the
    copies into one component: factors lists ((a,), t_a) self-pairs and
    ((a, b), k_ab) lines over the vertices in copy order, r the legs left free
    per vertex, and w = prod_a legs[a]! / (2^t_a t_a! r_a!) / prod_(a<b) k_ab!
    the number of partial pairings of the distinguishable legs that realize it.

    Line counts are picked one vertex pair at a time, never more than the
    legs both vertices have left, so the patterns come in the lexicographic
    order of their line counts, then of their self-pairs."""
    legs = sum(copy_legs, ())
    owner = tuple(i for i, x in enumerate(copy_legs) for _ in x)
    pairs = tuple(itertools.combinations(range(len(legs)), 2))

    def line_counts(i: int, left):
        if i == len(pairs):
            yield (), left
            return
        a, b = pairs[i]
        for k in range(min(left[a], left[b]) + 1):
            rest = [x - k if v in (a, b) else x for v, x in enumerate(left)]
            for ks, r in line_counts(i + 1, rest):
                yield (k,) + ks, r

    out = []
    for ks, left in line_counts(0, legs):
        lines = tuple((p, k) for p, k in zip(pairs, ks) if k)
        joins = [(owner[a], owner[b]) for (a, b), _ in lines]
        if _merges(list(range(len(copy_legs))), joins) < len(copy_legs) - 1:
            continue
        for ts in itertools.product(*(range(x // 2 + 1) for x in left)):
            r = tuple(x - 2 * t for x, t in zip(left, ts))
            den = math.prod(2 ** t * math.factorial(t) * math.factorial(x) for t, x in zip(ts, r))
            w = math.prod(map(math.factorial, legs)) // (den * math.prod(map(math.factorial, ks)))
            out.append((tuple(((a,), t) for a, t in enumerate(ts) if t) + lines, r, float(w)))
    return tuple(out)


def trivial_vacuum_graph() -> FeynmanGraph:
    """The single line-free graph: one vacuum element, empty pairing."""
    return FeynmanGraph(elements=(GraphElement("vacuum", 0),), pairing=())


def _elements(n: int, p: int, r: int) -> tuple:
    out = []
    for i in range(n):
        out.append(GraphElement("coupling", i))
    for i in range(p):
        out.append(GraphElement("mass", i))
    for i in range(r):
        out.append(GraphElement("external", i))
    return tuple(out)


def enumerate_matchings(half_lines):
    """All perfect matchings of a list of distinct labeled half-lines.

    The least free half-line is paired with each later free one in turn, so
    the matchings come in lexicographic order of partner positions.  One
    pair list is extended and cut back along an explicit stack of choices.
    """
    half_lines = list(half_lines)
    m = len(half_lines)
    if m % 2:
        raise ValueError("odd number of half-lines cannot be matched")
    if not m:
        yield ()
        return
    free = [True] * m
    pairs, stack = [], []
    first = partner = 0
    free[0] = False
    while True:
        partner += 1
        while partner < m and not free[partner]:
            partner += 1
        if partner == m:  # every partner of ``first`` tried: back up one pair
            free[first] = True
            if not stack:
                return
            pairs.pop()
            first, partner = stack.pop()
            free[partner] = True
            continue
        pairs.append((half_lines[first], half_lines[partner]))
        if 2 * len(pairs) == m:
            yield tuple(pairs)
            pairs.pop()
            continue
        free[partner] = False
        stack.append((first, partner))
        first = partner = free.index(True)
        free[first] = False


def enumerate_connected(n: int, p: int, r: int) -> list:
    """All connected labeled matchings over n coupling, p mass, r external elements.

    For (n, p, r) = (0, 0, 0) the result is the single trivial vacuum graph.
    """
    if n < 0 or p < 0 or r < 0:
        raise ValueError("element counts must be nonnegative")
    if (n, p, r) == (0, 0, 0):
        return [trivial_vacuum_graph()]
    total = 4 * n + 2 * p + r
    if total % 2:
        raise ValueError(f"odd half-line total {total} for (n,p,r)=({n},{p},{r})")
    elements = _elements(n, p, r)
    half_lines = [(v, s) for v, e in enumerate(elements) for s in range(e.half_lines)]
    k = len(elements)
    return [FeynmanGraph(elements=elements, pairing=pairing)
            for pairing in enumerate_matchings(half_lines)
            if _merges(list(range(k)), [(a[0], b[0]) for a, b in pairing]) == k - 1]


def aggregate_topologies(graphs):
    """Group labeled matchings into topologies.

    Two matchings share a topology when a relabeling of same-kind vertices
    maps one line multiset onto the other.  Returns a list of
    (representative graph, line multiset, multiplicity) in first-seen order,
    where the representative is the first graph of its bucket and the line
    multiset is that graph's raw one (sorted vertex-index pairs), not a
    canonical form.  The invariant is computed once per distinct raw multiset.
    """
    buckets = {}
    invariants = {}
    for g in graphs:
        kinds = tuple(e.kind for e in g.elements)
        raw = tuple(sorted(tuple(sorted(l)) for l in g.lines()))
        sig = invariants.get((raw, kinds))
        if sig is None:
            sig = invariants[(raw, kinds)] = _canonical_lines(raw, kinds)
        if sig not in buckets:
            buckets[sig] = [g, raw, 0]
        buckets[sig][2] += 1
    return [(g, raw, count) for g, raw, count in buckets.values()]


def _canonical_lines(lines, kinds):
    """Complete invariant of a line multiset under same-kind relabeling.

    External elements are leaves (one half-line each) and interchangeable,
    so they are folded away: up to relabeling of the externals, a multiset is
    fixed by its lines between internal vertices.  The external legs on an
    internal vertex are the half-lines those lines leave free, and the
    external-external lines take the remaining externals.  Only the internal
    same-kind labels are then permuted, (n+p)! relabelings at most, and the
    least relabeled internal multiset is kept.  Two multisets over the same
    kinds get the same invariant exactly when a same-kind relabeling maps one
    onto the other.
    """
    groups = {}
    for i, k in enumerate(kinds):
        if k != "external":
            groups.setdefault(k, []).append(i)
    internal = [(u, v) for u, v in lines
                if kinds[u] != "external" and kinds[v] != "external"]
    best = None
    for combo in itertools.product(*[itertools.permutations(ix) for ix in groups.values()]):
        mapping = {}
        for orig_ix, perm in zip(groups.values(), combo):
            for a, b in zip(orig_ix, perm):
                mapping[a] = b
        relabeled = tuple(sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in internal))
        if best is None or relabeled < best:
            best = relabeled
    return best


@functools.lru_cache(maxsize=None)
def _topology_table(n: int, p: int, r: int) -> tuple:
    """(raw line multiset, element kinds, multiplicity) per topology of the
    connected (n, p, r) family.

    The full pairings among the _joined_patterns of one vertex per copy, with
    4, 2 and 1 legs, are the connected line multisets, each weighted by the
    number of labeled matchings that realize it; they are bucketed by
    _canonical_lines and their weights summed, so no matching is enumerated.
    It depends only on the three counts, never on a kernel or a source, so
    it is built once per process and shared by every series and counterterm.
    """
    kinds = tuple(e.kind for e in _elements(n, p, r))
    buckets = {}
    for factors, left, w in _joined_patterns(((4,),) * n + ((2,),) * p + ((1,),) * r):
        if any(left):
            continue
        raw = tuple(sorted((axes[0], axes[-1]) for axes, k in factors for _ in range(k)))
        sig = _canonical_lines(raw, kinds)
        if sig not in buckets:
            buckets[sig] = [raw, 0]
        buckets[sig][1] += int(w)
    return tuple((raw, kinds, count) for raw, count in buckets.values())


class _Step(NamedTuple):
    """One contraction of a compiled plan, as np.einsum(optimize=True) runs it.

    The operands at ``positions`` (descending) are popped, contracted by the
    einsum equation ``eq`` and the result, of ``entries`` entries, appended.
    A step over one operand, or over all that remain, is the single call
    ``np.einsum(eq, *operands)``.  A pair (a, b), popped in that order, is
    prepared one operand at a time: ``np.einsum(prep_a, a)`` transposes it or
    sums an index no other term holds, then it is reshaped to ``shape_a``;
    then ``np.multiply(a, b)`` when no index is contracted, else
    ``np.matmul(a, b)`` reshaped to ``shape_out`` and transposed by ``perm``.
    A None field is a call numpy skips too."""

    positions: tuple
    eq: str
    entries: int
    prep_a: str | None = None
    shape_a: tuple | None = None
    prep_b: str | None = None
    shape_b: tuple | None = None
    multiply: bool = False
    shape_out: tuple | None = None
    perm: tuple | None = None


def _pair_step(positions, a_term: str, b_term: str, out: str, n: int) -> _Step:
    """The pairwise einsum a_term,b_term->out over indices of size n > 1,
    compiled to the calls of numpy's batched-matmul executor (after
    J. Gray's einsum_bmm): batch indices first, then kept, then contracted."""
    bat = [ix for ix in a_term if ix in b_term and ix in out]
    con = [ix for ix in a_term if ix in b_term and ix not in out]
    a_keep = [ix for ix in a_term if ix not in b_term and ix in out]
    b_keep = [ix for ix in b_term if ix not in a_term and ix in out]

    def prep(term, desired):
        return None if desired == term else f"{term}->{desired}"

    eq, entries = f"{a_term},{b_term}->{out}", n ** len(out)
    if not con:
        # pure multiplication: each term transposed into output order, with
        # singleton axes where the other term's indices go
        return _Step(positions, eq, entries,
                     prep_a=prep(a_term, "".join(ix for ix in out if ix in a_term)),
                     shape_a=tuple(n if ix in a_term else 1 for ix in out),
                     prep_b=prep(b_term, "".join(ix for ix in out if ix in b_term)),
                     shape_b=tuple(n if ix in b_term else 1 for ix in out),
                     multiply=True)
    lead = (bat,) if bat else ()  # no size-1 batch axis without batch indices
    lgroups, rgroups, ogroups = lead + (a_keep, con), lead + (con, b_keep), lead + (a_keep, b_keep)

    def fused(gs):
        return tuple(n ** len(g) for g in gs) if any(len(g) != 1 for g in gs) else None

    produced = "".join(bat + a_keep + b_keep)
    return _Step(positions, eq, entries,
                 prep_a=prep(a_term, "".join(bat + a_keep + con)), shape_a=fused(lgroups),
                 prep_b=prep(b_term, "".join(bat + con + b_keep)), shape_b=fused(rgroups),
                 shape_out=(tuple(n for g in ogroups for _ in g)
                            if any(len(g) != 1 for g in ogroups) else None),
                 perm=None if produced == out else tuple(produced.index(ix) for ix in out))


@functools.lru_cache(maxsize=1024)
def _contraction_plan(lines: tuple, element_kinds: tuple, n_sites: int) -> tuple:
    """(operand roles, steps, free vertex count) of one topology.

    Roles are M (a line), c0 (a self-loop's C(0) vector) and f (an external
    leg).  The contraction order is np.einsum_path's optimize=True choice for
    these shapes, searched once; it is compiled into ``_Step`` calls, the
    ones np.einsum(optimize=True) would make, so replaying them gives its
    float result bit for bit with no per-call parsing.  The key holds no
    kernel, source or coupling, and a plan holds no array; 1024 plans stay
    under 1 MiB."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    k = len(element_kinds)
    if k > len(letters):
        raise ValueError("too many vertices")
    roles, subs = [], []
    used = set()
    for u, v in lines:
        used.update((u, v))
        roles.append("c0" if u == v else "M")
        subs.append(letters[u] if u == v else letters[u] + letters[v])
    for v, kind in enumerate(element_kinds):
        if kind == "external":
            roles.append("f")
            subs.append(letters[v])
            used.add(v)
    free = k - len(used)
    if not roles:
        return (), (), free
    shapes = [np.broadcast_to(0.0, (n_sites,) * len(sub)) for sub in subs]
    path = np.einsum_path(",".join(subs) + "->", *shapes, optimize=True)[0][1:]
    steps = []
    for positions in path:
        positions = tuple(sorted(positions, reverse=True))
        terms = [subs.pop(x) for x in positions]
        # a result keeps the indices a later term needs, in letter order
        # (all sizes are equal); the last one is the scalar
        out = "".join(sorted(set("".join(terms)) & set("".join(subs))))
        subs.append(out)
        if len(terms) == 2:
            steps.append(_pair_step(positions, *terms, out, n_sites))
        else:
            steps.append(_Step(positions, ",".join(terms) + "->" + out, n_sites ** len(out)))
    return tuple(roles), tuple(steps), free


def _einsum_sum(lines, element_kinds, M, c0, f, n_sites):
    """Sum of prod-of-lines (and f factors) over all vertex position
    assignments.  A line between two vertices reads the dense covariance M
    (None when there is no such line), a self-loop the float c0 = C(0)."""
    roles, steps, free = _contraction_plan(tuple(lines), tuple(element_kinds), n_sites)
    if not roles:
        return float(n_sites ** free)
    loop = np.full(n_sites, c0) if "c0" in roles else None
    ops = [M if r == "M" else loop if r == "c0" else f for r in roles]
    for s in steps:
        terms = [ops.pop(x) for x in s.positions]
        if len(terms) != 2:
            ops.append(np.einsum(s.eq, *terms))
            continue
        a, b = terms
        if s.prep_a is not None:
            a = np.einsum(s.prep_a, a)
        if s.shape_a is not None:
            a = a.reshape(s.shape_a)
        if s.prep_b is not None:
            b = np.einsum(s.prep_b, b)
        if s.shape_b is not None:
            b = b.reshape(s.shape_b)
        if s.multiply:
            ops.append(np.multiply(a, b))
            continue
        ab = np.matmul(a, b)
        if s.shape_out is not None:
            ab = ab.reshape(s.shape_out)
        if s.perm is not None:
            ab = ab.transpose(s.perm)
        ops.append(ab)
    return float(ops[0]) * n_sites ** free


def integrated_value(G: FeynmanGraph, kernel: PropagatorKernel, f,
                     lam: float, mu: float = 0.0, nu: float = 0.0) -> float:
    """Graph value summed over all vertex positions with weight a^d per vertex."""
    spec = kernel.spec
    if len(G.elements) == 1 and G.elements[0].kind == "vacuum":
        return nu * spec.n_sites * spec.a ** spec.d
    internal = G.n + G.p
    if internal > MAX_INTERNAL_VERTICES:
        raise InfeasibleSizeError(f"refusing {internal} internal vertices "
                                  f"(at most {MAX_INTERNAL_VERTICES})")
    f_arr = spec.source(f)
    n, p, r = G.n, G.p, G.r
    pref = (-1.0) ** (n + p + r) * lam ** n * mu ** p
    pref /= math.factorial(n) * math.factorial(p) * math.factorial(r)
    kinds = tuple(e.kind for e in G.elements)
    M = _shared_matrix(kernel) if any(u != v for u, v in G.lines()) else None
    S = _einsum_sum(G.lines(), kinds, M, kernel.at_zero, f_arr, spec.n_sites)
    return pref * S * spec.a ** (spec.d * len(G.elements))


# --- polynomial-in-lambda helpers -------------------------------------------

def _poly_mul(a, b, jmax):
    out = np.zeros(jmax + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > jmax:
            continue
        top = min(len(b), jmax + 1 - i)
        out[i:i + top] += ai * b[:top]
    return out


def _poly_shift(a, k, jmax):
    out = np.zeros(jmax + 1)
    if k <= jmax:
        out[k:] = a[: jmax + 1 - k]
    return out


@functools.lru_cache(maxsize=256)
def _family_reach(n: int, p: int, r: int, n_sites: int) -> tuple:
    """(entries of the largest result a contraction step makes, whether a
    plan has a line between two vertices) over the topologies of the
    connected (n, p, r) family."""
    plans = [_contraction_plan(raw, kinds, n_sites) for raw, kinds, _ in _topology_table(n, p, r)]
    return (max((s.entries for _, steps, _ in plans for s in steps), default=0),
            any("M" in roles for roles, _, _ in plans))


def _require_plans(families, n_sites: int) -> bool:
    """Refuse a sum over the (n, p, r) families before the dense matrix is
    built when a step of their plans would make over MAX_TENSOR_ENTRIES;
    else say whether any of their plans reads the dense matrix."""
    lines = False
    for n, p, r in families:
        peak, has_line = _family_reach(n, p, r, n_sites)
        if peak > MAX_TENSOR_ENTRIES:
            raise InfeasibleSizeError(f"the ({n},{p},{r}) graphs on {n_sites} sites contract "
                                      f"through {peak} entries, over MAX_TENSOR_ENTRIES = "
                                      f"{MAX_TENSOR_ENTRIES}")
        lines = lines or has_line
    return lines


def _family_poly(n, p, r, spec, M, c0, f_arr, mu_poly, jmax):
    """Sum over connected (n,p,r) matchings of integrated values, as a lambda
    poly; M is the dense covariance (None if no plan has a line), c0 = C(0)."""
    table = _topology_table(n, p, r)
    if not table:
        return None
    sign = (-1.0) ** (n + p + r)
    norm = math.factorial(n) * math.factorial(p) * math.factorial(r)
    base = np.zeros(jmax + 1)
    base[0] = sign / norm
    base = _poly_shift(base, n, jmax)
    for _ in range(p):
        base = _poly_mul(base, mu_poly, jmax)
    if not base.any():
        return None
    weight = spec.a ** (spec.d * (n + p + r))
    S = 0.0
    for raw_lines, kinds, count in table:
        S += count * _einsum_sum(raw_lines, kinds, M, c0, f_arr, spec.n_sites)
    return base * (S * weight)


# --- counterterms ------------------------------------------------------------

@dataclass
class Counterterms:
    """Quadratic and constant counterterms at the cutoff, for one coupling."""

    lam: float
    mu: float
    nu: float
    mu_poly: np.ndarray = field(repr=False)
    nu_poly: np.ndarray = field(repr=False)


def mu_polynomial(spec: LatticeSpec, kernel: PropagatorKernel | None = None) -> np.ndarray:
    """Coefficients [0, mu1, mu2] of the quadratic counterterm as a lambda series.

    mu1 = -6 C_00 in both dimensions; mu2 = 48 sum_eta C_0eta^3 a^d only in d=3
    (the local part of the divergent chain, coefficient 4^2 * 3!/2 = 48).
    """
    kernel = covariance_cumulative(spec, spec.N) if kernel is None else kernel
    mu1 = -6.0 * kernel.at_zero
    mu2 = 0.0
    if spec.d == 3:
        mu2 = 48.0 * float(np.sum(kernel.values ** 3)) * spec.a ** spec.d
    return np.array([0.0, mu1, mu2])


def vacuum_density_poly(spec: LatticeSpec, kernel: PropagatorKernel,
                        mu_poly: np.ndarray, order: int) -> np.ndarray:
    """Connected vacuum-graph density as a lambda polynomial through ``order``.

    This is the full sum over connected matchings with no external legs, the
    quadratic counterterm installed as a polynomial insertion, divided by the
    volume.  The constant counterterm is fixed as nu = (this polynomial), so
    that the vacuum part of the log Z series cancels identically through the
    same order.
    """
    total = np.zeros(order + 1)
    vol = spec.n_sites * spec.a ** spec.d
    families = [(n, p, 0) for n in range(order + 1) for p in range(order + 1 - n) if n + p]
    M = _shared_matrix(kernel) if _require_plans(families, spec.n_sites) else None
    c0, zeros = kernel.at_zero, np.zeros(spec.n_sites)
    for n, p, r in families:
        part = _family_poly(n, p, r, spec, M, c0, zeros, mu_poly, order)
        if part is not None:
            total += part
    return total / vol


def counterterms(spec: LatticeSpec, lam: float, nu_order: int | None = None) -> Counterterms:
    """Counterterms mu_N, nu_N for coupling lam on the given lattice, from the
    cutoff covariance C^(<=N).

    nu is computed by the executable cancellation criterion (vacuum graphs
    cancel in the log Z series) through ``nu_order`` in lambda; pass
    nu_order=0 to skip the (enumeration-heavy) nu computation on large
    lattices where only mu is needed.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if nu_order is None:
        nu_order = 3 if spec.d == 3 else 2
    _check_order(nu_order)
    kernel = covariance_cumulative(spec, spec.N)
    mp = mu_polynomial(spec, kernel)
    mu = float(np.polyval(mp[::-1], lam))
    if nu_order == 0:
        npoly = np.zeros(1)
    else:
        npoly = vacuum_density_poly(spec, kernel, mp, nu_order)
    nu = float(np.polyval(npoly[::-1], lam))
    return Counterterms(lam=lam, mu=mu, nu=nu, mu_poly=mp, nu_poly=npoly)


# --- renormalized chain ------------------------------------------------------

def _convolve(spec: LatticeSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Periodic convolution (A * B)(t) = sum_x A(x) B(t - x) a^d."""
    return np.fft.ifftn(np.fft.fftn(A) * np.fft.fftn(B)).real * spec.a ** spec.d


def renormalized_chain_value(kernel: PropagatorKernel, alpha, beta,
                             subtract: bool = True) -> float:
    """Subtracted second-order chain sum_{x,eta} C_ax C_xeta^3 (C_eta b - C_x b).

    ``kernel`` is the cutoff covariance C^(<=N).  Only meaningful in d=3 where
    the unsubtracted chain diverges with the cutoff; d=2 input is rejected
    because no subtraction is needed there.
    """
    spec = kernel.spec
    if spec.d != 3:
        raise ValueError("renormalized chain subtraction applies only in d=3")
    Co = kernel.values
    C3 = Co ** 3
    chain = _convolve(spec, Co, _convolve(spec, C3, Co))
    t = tuple((b - a_) % spec.n_side for a_, b in zip(alpha, beta))
    if not subtract:
        return float(chain[t])
    S3 = float(np.sum(C3)) * spec.a ** spec.d
    local = _convolve(spec, Co, Co)
    return float(chain[t] - S3 * local[t])


# --- Isserlis oracle ---------------------------------------------------------

def wick_oracle(sites, cov) -> float:
    """Gaussian expectation of prod_i phi_{sites[i]} by exhaustive pairing.

    ``sites`` is a flat list of site indices (repetitions allowed), ``cov``
    either a PropagatorKernel, read at the displacements between the sites
    with no dense matrix built, or a dense covariance matrix.  The entries
    between the distinct sites are taken once as floats.  The Isserlis
    recursion pairs the first remaining site with each later one in turn and
    is memoized on the tuple of remaining sites, which fixes its value, so
    each distinct remainder is summed once, in the same order as without the
    memo.  Odd degree gives zero; the degree is capped at 12.
    """
    sites = list(sites)
    if len(sites) > 12:
        raise ValueError("oracle degree capped at 12")
    if len(sites) % 2:
        return 0.0
    distinct = np.array(sorted(set(sites)), dtype=int)
    if isinstance(cov, PropagatorKernel):
        x = np.unravel_index(distinct, cov.spec.shape)
        C = cov.values[tuple((c[:, None] - c) % cov.spec.n_side for c in x)].tolist()
    else:
        C = np.asarray(cov)[np.ix_(distinct, distinct)].tolist()
    memo = {(): 1.0}

    def rec(ix):
        if ix not in memo:
            row, rest = C[ix[0]], ix[1:]
            total = 0.0
            for i in range(len(rest)):
                total += row[rest[i]] * rec(rest[:i] + rest[i + 1:])
            memo[ix] = total
        return memo[ix]

    return float(rec(tuple(np.searchsorted(distinct, sites).tolist())))


def monomial_sites(monomials) -> list:
    """Expand [(site, power), ...] into the flat site list the oracle consumes."""
    out = []
    for site, power in monomials:
        out.extend([site] * power)
    return out


# --- series ------------------------------------------------------------------

@dataclass
class SeriesResult:
    """Coefficient table of (1/|Lambda|) log Z through a fixed order."""

    spec: LatticeSpec
    j: int
    coefficients: np.ndarray

    def total(self, lam: float) -> float:
        return float(sum(c * lam ** k for k, c in enumerate(self.coefficients)))


def logZ_series(spec: LatticeSpec, lam: float, f, j: int,
                kernel: PropagatorKernel | None = None,
                cts: Counterterms | None = None) -> SeriesResult:
    """Renormalized series for (1/|Lambda|) log Z_N(f) through order j in lambda.

    All connected graphs over coupling, mass and external elements are summed
    with the counterterm polynomial installed; the constant counterterm enters
    as the order-matched negative of the connected vacuum density, so vacuum
    contributions cancel identically.  An alternative kernel (for instance a
    difference propagator) may be supplied; the counterterms always refer to
    the full cutoff-N propagator of the spec.
    """
    _check_order(j)
    kernel = covariance_cumulative(spec, spec.N) if kernel is None else kernel
    if cts is None:
        cts = counterterms(spec, lam, nu_order=j if j > 0 else 0)
    f_arr = spec.source(f)
    vol = spec.n_sites * spec.a ** spec.d
    coeffs = np.zeros(j + 1)
    # external legs carry the source: none without one
    legs = range(0, 5, 2) if np.any(f_arr) else (0,)
    families = [(n, p, r) for n in range(j + 1) for p in range(j + 1 - n) for r in legs
                if n + p + r]
    M = _shared_matrix(kernel) if _require_plans(families, spec.n_sites) else None
    c0 = kernel.at_zero
    for n, p, r in families:
        part = _family_poly(n, p, r, spec, M, c0, f_arr, cts.mu_poly, j)
        if part is not None:
            coeffs += part / vol
    # constant counterterm: V carries -nu per unit volume
    for k in range(min(len(cts.nu_poly), j + 1)):
        coeffs[k] -= cts.nu_poly[k]
    return SeriesResult(spec=spec, j=j, coefficients=coeffs)
