"""Connected graph enumeration, graph values, counterterms and the log Z series.

The primitive object is a perfect matching of labeled half-lines (a Wick
contraction).  Quartic vertices carry 4 half-lines, quadratic (mass) vertices
2, external-field vertices 1 and the trivial vacuum vertex none.  Symmetry
factors are never hand-counted: the series weighs each line pattern of
``_joined_patterns`` (the rule the recursion integrates with) by the number
of leg pairings that realize it, which are checked against the labeled
matchings themselves; those stay as the oracle (``integrated_value`` over
``aggregate_topologies``) and as the input of cluster trees.  Matchings are
generated from one explicit stack of choices, and a matching over k
elements is connected when a union-find over its lines makes k - 1 merges.

The interaction convention is

    Z(f) = E[ exp(V) ],
    V = -a^d sum_x ( lambda phi_x^4 + mu phi_x^2 + nu + f_x phi_x )

so a graph with n quartic, p mass and r external vertices carries the sign
(-1)^(n+p+r) of the value formula.  The quadratic counterterm is kept as a
polynomial in lambda (first order -6 lambda C_00, second order the d=3 local
chain part), which makes order bookkeeping in the series exact.

The series reads the source only as a shift of the field.  By the
translation formula for Gaussian measures,

    log Z(f)/Z(0) = 1/2 a^(2d) f.C.f + log E[exp(U(phi + s))] - log E[exp(U(phi))]

with s = -a^d C f and U = V at f = 0, so it sums the joined patterns of
n quartic and p mass one-vertex copies, every free leg reading s and every
line a power of ``kernel.values``.  A pattern is summed with no dense
matrix: vertices without free legs are summed away (into a line's sum or a
convolution), a pair left is one spectral dot product and a triangle loops
over one vertex.  Without a source only the full pairings count, and each
is a translation-reduced sum.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice_propagator import (
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


def integrated_value(G: FeynmanGraph, kernel: PropagatorKernel, f,
                     lam: float, mu: float = 0.0, nu: float = 0.0) -> float:
    """Graph value summed over all vertex positions with weight a^d per vertex.

    The per-graph oracle of the series, on the dense covariance C: a
    self-loop is the factor C(0), a line between two external legs the
    factor f.C.f, and the external legs on a vertex the vector (C f)^q.
    One np.einsum(optimize=True) call, its path searched anew on every
    call, contracts those vectors with the elementwise power C^k per vertex
    pair joined by k lines."""
    spec = kernel.spec
    if len(G.elements) == 1 and G.elements[0].kind == "vacuum":
        return nu * spec.n_sites * spec.a ** spec.d
    internal = G.n + G.p
    if internal > MAX_INTERNAL_VERTICES:
        raise InfeasibleSizeError(f"refusing {internal} internal vertices "
                                  f"(at most {MAX_INTERNAL_VERTICES})")
    letters = "abcdefghijklmnopqrstuvwxyz"
    if len(G.elements) > len(letters):
        raise ValueError("too many vertices")
    f_arr = spec.source(f)
    n, p, r = G.n, G.p, G.r
    pref = (-1.0) ** (n + p + r) * lam ** n * mu ** p
    pref /= math.factorial(n) * math.factorial(p) * math.factorial(r)
    external = [e.kind == "external" for e in G.elements]
    operands, subs, legs = [], [], collections.Counter()
    for (u, v), k in collections.Counter(tuple(sorted(l)) for l in G.lines()).items():
        if u == v:
            pref *= kernel.at_zero ** k
        elif external[u] and external[v]:
            pref *= float(f_arr @ _shared_matrix(kernel) @ f_arr)
        elif external[u] or external[v]:
            legs[v if external[u] else u] += 1
        else:
            operands.append(_shared_matrix(kernel) ** k)
            subs.append(letters[u] + letters[v])
    for u, q in legs.items():
        operands.append((_shared_matrix(kernel) @ f_arr) ** q)
        subs.append(letters[u])
    S = float(np.einsum(",".join(subs) + "->", *operands, optimize=True)) if operands else 1.0
    # an internal vertex no operand indexes sums to n_sites
    S *= spec.n_sites ** (len(G.elements) - r - len(set("".join(subs))))
    return pref * S * spec.a ** (spec.d * len(G.elements))


# --- the series engine -------------------------------------------------------

def _poly_mul(a, b, jmax):
    out = np.zeros(jmax + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > jmax:
            continue
        top = min(len(b), jmax + 1 - i)
        out[i:i + top] += ai * b[:top]
    return out


def _convolve(spec: LatticeSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Periodic convolution (a * b)(t) = sum_x a(x) b(t - x) a^d, from the
    spectra A = fftn(a) and B = fftn(b)."""
    return np.fft.ifftn(A * B).real * spec.a ** spec.d


def _pattern_sums(kernel: PropagatorKernel, s):
    """value(factors, r): a line pattern of ``_joined_patterns`` summed over
    its vertex positions y, a^d per vertex, of prod_a C(0)^t_a s(y_a)^r_a
    prod_(a<b) C(y_a - y_b)^k_ab, with s the field shift over the sites
    (None when no pattern has a free leg).

    Arrays are named by keys: ("C", k) is C^k, ("s", r) is s^r, ("F", K)
    the spectrum and ("+", K) the a^d-weighted sum of a keyed array, and
    ("*", K, L) and ("x", K, L) the convolution and the product of two;
    each is made once per call, and only when a pattern reads it.  A vertex
    without free legs is summed away first: with one line it leaves that
    line's sum, with two their convolution, a new line between its
    neighbours.  Of three vertices with legs, a chain folds a leaf into its
    neighbour's weight by one convolution, and a triangle loops over one
    vertex's positions with O(n_sites) memory.  A pair left is one spectral
    dot product.  Every kernel is even, so a line has no orientation; at
    most MAX_ORDER copies are joined, so a vertex has at most two
    neighbours."""
    spec = kernel.spec
    ad, axes = spec.a ** spec.d, tuple(range(spec.d))
    memo = {}

    def real(key):
        if key not in memo:
            op, *args = key
            if op == "C":
                memo[key] = kernel.values ** args[0]
            elif op == "s":
                memo[key] = s.reshape(spec.shape) ** args[0]
            elif op == "F":
                memo[key] = np.fft.fftn(real(args[0]))
            elif op == "+":
                memo[key] = ad * float(np.sum(real(args[0])))
            elif op == "*":
                memo[key] = _convolve(spec, spectrum(args[0]), spectrum(args[1]))
            else:
                memo[key] = real(args[0]) * real(args[1])
        return memo[key]

    def spectrum(key):
        return real(("F", key))

    def total(key):
        return real(("+", key))

    def dot(A, K, B):
        """a^(2d) sum_(y,z) a(y) k(y - z) b(z) from the spectra A, K, B."""
        return ad * ad * float(np.vdot(A, K * B).real) / spec.n_sites

    def value(factors, r):
        out, lines = 1.0, {}
        for ab, k in factors:
            if len(ab) == 1:
                out *= kernel.at_zero ** k
            else:
                lines[ab] = ("C", k)
        legs = {v: ("s", x) for v, x in enumerate(r) if x}
        alive = list(range(len(r)))
        for v in [v for v in alive if v not in legs]:
            if len(alive) == 1:
                break
            alive.remove(v)
            ends = [ab for ab in lines if v in ab]
            if len(ends) == 1:
                out *= total(lines.pop(ends[0]))
                continue
            uw = tuple(sorted(u for ab in ends for u in ab if u != v))
            new = ("*", lines.pop(ends[0]), lines.pop(ends[1]))
            lines[uw] = ("x", lines[uw], new) if uw in lines else new
        if len(alive) == 1:
            return out * (total(legs[alive[0]]) if alive[0] in legs else ad * spec.n_sites)
        if len(alive) == 3 and len(lines) == 2:
            v = next(v for v in alive if sum(v in ab for ab in lines) == 1)
            ab = next(ab for ab in lines if v in ab)
            u = ab[0] + ab[1] - v
            legs[u] = ("x", legs[u], ("*", lines.pop(ab), legs[v]))
            alive.remove(v)
        if len(alive) == 2:
            (a, b), K = lines.popitem()
            return out * dot(spectrum(legs[a]), spectrum(K), spectrum(legs[b]))
        a, b, c = alive
        A, B, D = (real(legs[v]) for v in alive)
        Kab, Kac, Kbc = real(lines[a, b]), real(lines[a, c]), spectrum(lines[b, c])
        loop = 0.0
        for y in np.ndindex(spec.shape):
            loop += A[y] * dot(np.fft.fftn(B * np.roll(Kab, y, axes)), Kbc,
                               np.fft.fftn(D * np.roll(Kac, y, axes)))
        return out * ad * loop

    return value


def _connected_density(kernel: PropagatorKernel, s, mu_poly: np.ndarray,
                       order: int) -> np.ndarray:
    """The connected part of log E[exp(-a^d sum_x (lambda (phi + s)^4
    + mu (phi + s)^2))] per volume, mu = mu_poly(lambda), as a lambda
    polynomial through ``order``: the joined patterns of n quartic and p
    mass one-vertex copies, weighted (-1)^(n+p) lambda^n mu^p / (n! p!).
    Without a shift (s None) only the full pairings count."""
    _check_order(order)
    spec = kernel.spec
    value = _pattern_sums(kernel, s)
    total = np.zeros(order + 1)
    for n in range(order + 1):
        for p in range(order + 1 - n):
            base = np.zeros(order + 1)
            base[n] = (-1.0) ** (n + p) / (math.factorial(n) * math.factorial(p))
            for _ in range(p):
                base = _poly_mul(base, mu_poly, order)
            if not (n + p and base.any()):
                continue
            total += base * sum(w * value(factors, r) for factors, r, w
                                in _joined_patterns(((4,),) * n + ((2,),) * p)
                                if s is not None or not any(r))
    return total / (spec.n_sites * spec.a ** spec.d)


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

    This is the series engine without a shift: the full pairings of the
    quartic and mass copies, the quadratic counterterm installed as a
    polynomial insertion, divided by the volume.  The constant counterterm
    is fixed as nu = (this polynomial), so that the vacuum part of the log Z
    series cancels identically through the same order.
    """
    return _connected_density(kernel, None, mu_poly, order)


def counterterms(spec: LatticeSpec, lam: float, nu_order: int | None = None) -> Counterterms:
    """Counterterms mu_N, nu_N for coupling lam on the given lattice, from the
    cutoff covariance C^(<=N).

    nu is computed by the executable cancellation criterion (vacuum graphs
    cancel in the log Z series) through ``nu_order`` in lambda; nu_order=0
    skips it where only mu is needed.
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
    fo = np.fft.fftn(Co)
    chain = _convolve(spec, fo, np.fft.fftn(_convolve(spec, np.fft.fftn(C3), fo)))
    t = tuple((b - a_) % spec.n_side for a_, b in zip(alpha, beta))
    if not subtract:
        return float(chain[t])
    S3 = float(np.sum(C3)) * spec.a ** spec.d
    local = _convolve(spec, fo, fo)
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

    The source enters as a shift of the field, s = -a^d C f: log Z(f)/Z(0)
    is 1/2 a^(2d) f.C.f at order 0 plus the connected patterns of the quartic
    and mass copies with every free leg reading s, the counterterm
    polynomial installed; the constant counterterm enters as the
    order-matched negative of the connected vacuum density, so vacuum
    contributions cancel identically.  An alternative kernel (for instance a
    difference propagator) may be supplied; the counterterms always refer to
    the full cutoff-N propagator of the spec.
    """
    _check_order(j)
    kernel = covariance_cumulative(spec, spec.N) if kernel is None else kernel
    if cts is None:
        cts = counterterms(spec, lam, nu_order=j if j > 0 else 0)
    f_arr = spec.source(f)
    s = -kernel.smear(f_arr) if np.any(f_arr) else None
    coeffs = _connected_density(kernel, s, cts.mu_poly, j)
    if s is not None:  # 1/2 a^(2d) f.C.f = -1/2 a^d f.s, over the volume n_sites a^d
        coeffs[0] -= 0.5 * float(f_arr @ s) / spec.n_sites
    # constant counterterm: V carries -nu per unit volume
    for k in range(min(len(cts.nu_poly), j + 1)):
        coeffs[k] -= cts.nu_poly[k]
    return SeriesResult(spec=spec, j=j, coefficients=coeffs)
