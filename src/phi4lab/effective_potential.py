"""Potential functionals, Wick powers, the truncated cumulant recursion
and the per-scale remainder bound.

A potential is a sum of vertex-local blocks.  Block (order, legs) holds
coefficients c over its vertex positions y, of shape (n_sites,) * len(legs)
(a float without vertices), for sum_y c[y] prod_a phi(y_a)^legs[a]: as a
dense kernel, runs of legs[a] equal indices y_a in vertex order.  One
recursion step integrates one scale band in truncated expectations:

    V_{j;h-1} = [ sum_{k=1..j} E^T(V, ..., V) / k! ]^(<= j)

with k copies of V in E^T, the Gaussian expectation over the scale-h layer,
and the truncation keeping lambda-orders up to j.  E(K) is Isserlis' sum
over partial pairings of K's legs.  Legs on one vertex are interchangeable,
so a block's pairings collapse to line patterns (t_a self-pairs on vertex a,
k_ab lines between vertices a < b), each weighted by the number of pairings
realizing it.  E^T of k copies is the sum over the line patterns whose lines
join the k copies into one component: no disconnected pattern is formed, so
no cumulant is built by subtraction.  k = 1 follows the same rule, one copy
being always joined.  The pattern table (``feynman_graphs._joined_patterns``,
which the series sums too) picks line counts within each vertex's legs and
keeps the joined patterns only.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .lattice_propagator import (
    MAX_TENSOR_ENTRIES,
    InfeasibleSizeError,
    LatticeSpec,
    _shared_matrix,
    covariance_band,
    covariance_cumulative,
    difference_kernel,
)
from .feynman_graphs import (Counterterms, _check_order, _joined_patterns, counterterms,
                             logZ_series)

__all__ = [
    "PotentialFunctional",
    "RemainderBound",
    "wick_power",
    "wick_quartic_potential",
    "bare_potential",
    "truncated_integrate",
    "relevant_split",
    "local_coefficients",
    "field_independent_part",
    "remainder_bound",
    "flow_constant",
    "require_flow",
]


def _check_entries(n: int, rank: int):
    if n ** rank > MAX_TENSOR_ENTRIES:
        raise InfeasibleSizeError(f"{n}^{rank} entries exceed MAX_TENSOR_ENTRIES = "
                                  f"{MAX_TENSOR_ENTRIES}")


def require_flow(spec: LatticeSpec, j: int):
    """Refuse an order-j flow before it starts: j over MAX_ORDER or j-vertex blocks too big."""
    _check_order(j)
    _check_entries(spec.n_sites, max(j, 1))


def _along(arr: np.ndarray, axes: tuple, rank: int) -> np.ndarray:
    """``arr`` shaped to broadcast over a rank-``rank`` array, its axes at ``axes``."""
    return arr.reshape([arr.shape[0] if i in axes else 1 for i in range(rank)])


class _DenseView(Mapping):
    """Read-only (order, degree) -> dense kernel view of a functional's blocks
    as they are when it is made: a kernel is summed from that degree's blocks
    when read, under the MAX_TENSOR_ENTRIES guard; degree 0 gives a float."""

    def __init__(self, V: "PotentialFunctional"):
        self._n, self._groups = V.spec.n_sites, {}
        for (o, legs), c in V.blocks.items():
            self._groups.setdefault((o, sum(legs)), []).append((legs, c))

    def __iter__(self):
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, key) -> bool:
        return key in self._groups

    def __getitem__(self, key):
        if key[1] == 0:
            return float(sum(c for _, c in self._groups[key]))
        _check_entries(self._n, key[1])
        out = np.zeros((self._n,) * key[1])
        for legs, c in self._groups[key]:
            sites = [_along(np.arange(self._n), (a,), len(legs)) for a in range(len(legs))]
            out[tuple(y for y, k in zip(sites, legs) for _ in range(k))] += c
        return out


@dataclass
class PotentialFunctional:
    """Finite sum of vertex-local blocks ``blocks[(order, legs)]``, graded by
    lambda-order; no operation writes a block in place.  ``terms`` is the
    read-only dense view keyed by (order, degree), for checks; nothing in the
    engine reads it."""

    spec: LatticeSpec
    h: int
    blocks: dict = field(default_factory=dict)

    @property
    def terms(self) -> _DenseView:
        return _DenseView(self)

    def add(self, order: int, legs: tuple, coeff):
        key = (order, tuple(legs))
        self.blocks[key] = self.blocks[key] + coeff if key in self.blocks else coeff

    def evaluate(self, phi, lam: float) -> float:
        """Numeric value on a concrete field configuration."""
        phi = np.asarray(phi, dtype=float).ravel()
        total = 0.0
        for (o, legs), c in self.blocks.items():
            for k in reversed(legs):
                c = c @ phi ** k
            total += lam ** o * float(c)
        return total

    def constant_coefficients(self, jmax: int) -> np.ndarray:
        """Degree-0 part per lambda-order."""
        out = np.zeros(jmax + 1)
        for (o, legs), c in self.blocks.items():
            if not legs and o <= jmax:
                out[o] += c
        return out

    def kernel_norms(self) -> dict:
        """Largest |coefficient| over the blocks of each (order, degree), with
        no dense kernel built.  It is the dense kernel's largest |entry| when
        a degree has one block of at most one vertex, as at order 1; from
        order 2 on, blocks add up where their positions coincide, and it is
        the largest single block coefficient."""
        norms = {}
        for (o, legs), c in self.blocks.items():
            key = (o, sum(legs))
            norms[key] = max(norms.get(key, 0.0), float(np.max(np.abs(c))))
        return norms


def wick_power(k: int, c: float) -> dict:
    """Expansion of the Wick power :phi^k:_c into ordinary powers.

    Returns {degree: coefficient}; for k=4 this is {4: 1, 2: -6c, 0: 3c^2}.
    """
    if k > 8:
        raise ValueError("Wick powers capped at degree 8")
    out = {}
    for q in range(k // 2 + 1):
        coeff = math.factorial(k) / (math.factorial(q) * 2 ** q * math.factorial(k - 2 * q))
        out[k - 2 * q] = coeff * (-c) ** q
    return out


def wick_quartic_potential(spec: LatticeSpec, h: int, variance: float) -> PotentialFunctional:
    """The order-1 potential  a^d sum_x :phi_x^4:_variance."""
    V = PotentialFunctional(spec, h)
    w = spec.a ** spec.d
    for degree, coeff in wick_power(4, variance).items():
        V.add(1, (degree,) * (degree > 0),
              np.full(spec.n_sites, coeff * w) if degree else coeff * w * spec.n_sites)
    return V


def bare_potential(spec: LatticeSpec, f=None, cts: Counterterms | None = None,
                   lam: float = 1e-2, jmax: int = 2) -> PotentialFunctional:
    """The bare interaction V_N = -a^d sum_x (lambda phi^4 + mu phi^2 + nu + f phi).

    Counterterm polynomials grade mu and nu over lambda-orders; the returned
    functional is expressed in the cutoff field phi^(<=N).
    """
    if cts is None:
        cts = counterterms(spec, lam, nu_order=jmax)
    n = spec.n_sites
    w = spec.a ** spec.d
    V = PotentialFunctional(spec, spec.N)
    V.add(1, (4,), np.full(n, -w))
    for order in (1, 2):
        if order < len(cts.mu_poly) and cts.mu_poly[order] != 0.0 and order <= jmax:
            V.add(order, (2,), np.full(n, -w * cts.mu_poly[order]))
    for order, c in enumerate(cts.nu_poly):
        if c != 0.0 and order <= jmax:
            V.add(order, (), -w * n * c)
    if f is not None:
        V.add(0, (1,), -w * spec.source(f))
    return V


def truncated_integrate(V: PotentialFunctional, j: int) -> PotentialFunctional:
    """One recursion step: integrate the scale-h layer to order j in lambda,
    sum_{k=1..j} E^T(V, ..., V) / k! over k copies of V.

    E^T of k copies takes, for each ordered choice of one block per copy
    whose orders sum to at most j, the outer product of their coefficients
    and integrates it along the line patterns whose lines join the k copies
    (``_joined_patterns``): each (factors, r, w) adds c * w * prod_a
    C(y_a, y_a)^t_a * prod_(a<b) C(y_a, y_b)^k_ab, summed over the positions
    of the vertices left without legs.  One copy is always joined; for
    k >= 2 a copy without legs joins nothing.  A self-pair reads C(0) from
    the band kernel; its dense matrix is fetched once, at the first line
    between two vertices, so a step over one-vertex blocks never builds it.

    Stopping at k = j keeps every term of lambda-order <= j only while each
    block has order >= 1.  A source block has order 0, so with a source the
    terms of order <= j from more than j copies are left out.
    """
    _check_order(j)
    h = V.h
    if h < 1:
        raise ValueError("no layer left to integrate")
    band = covariance_band(V.spec, h)
    diag, cov = np.full(V.spec.n_sites, band.at_zero), None
    out = PotentialFunctional(V.spec, h - 1)
    blocks = [(o, legs, c) for (o, legs), c in V.blocks.items()]
    for k in range(1, j + 1):
        for copies in itertools.product(blocks, repeat=k):
            orders, copy_legs, coeffs = zip(*copies)
            patterns = _joined_patterns(copy_legs) if sum(orders) <= j else ()
            if not patterns:
                continue
            legs = sum(copy_legs, ())
            _check_entries(V.spec.n_sites, len(legs))
            c = functools.reduce(np.multiply.outer, coeffs) / math.factorial(k)
            for factors, r, w in patterns:
                term = c * w
                for axes, t in factors:
                    if len(axes) == 2 and cov is None:
                        cov = _shared_matrix(band)
                    line = cov if len(axes) == 2 else diag
                    term = term * _along(line ** t, axes, len(legs))
                gone = tuple(a for a, x in enumerate(r) if x == 0)
                out.add(sum(orders), tuple(x for x in r if x), np.sum(term, axis=gone))
    return out


def flow_constant(spec: LatticeSpec, lam: float, f, j: int,
                  cts: Counterterms | None = None) -> np.ndarray:
    """Iterate the recursion from scale N down to 0, return the constant
    density per lambda-order (the field-independent part of V_{j;0}).
    With a source f it is not the order-j series: each step stops at j
    copies (see ``truncated_integrate``): at j = 1 the order-0 constant is
    0 where the series has 1/2 a^(2d) f.C.f / volume."""
    require_flow(spec, j)
    if cts is None:
        cts = counterterms(spec, lam, nu_order=j)
    V = bare_potential(spec, f=f, cts=cts, lam=lam, jmax=j)
    for h in range(spec.N, 0, -1):
        V = truncated_integrate(V, j)
    vol = spec.n_sites * spec.a ** spec.d
    return V.constant_coefficients(j) / vol


@dataclass
class RelevantSplit:
    """Local relevant block, d=3 nonlocal pair block, remainder and coefficients."""

    rel1: PotentialFunctional
    rel2: PotentialFunctional
    irr: PotentialFunctional
    coefficients: dict


def relevant_split(V: PotentialFunctional, lam: float) -> RelevantSplit:
    """Split a potential into relevant local block, d=3 pair block and remainder.

    The local block takes the blocks of degree 0 and 1, the one-vertex blocks
    of degree 2 and 4 and the all-coincident entries of the multi-vertex ones
    (the dense kernels' diagonals); ``irr`` the other blocks, those entries
    zeroed.  The coefficients are those of ``local_coefficients``.  In
    d=3 with h < N the canonical pair kernel 24 lambda^2 (C^(<=h)3 - C^(<=N)3)
    on (phi_eta - phi_eta')^2 is split off; in d=2 that block is identically
    empty.  A d=2 potential at h=0 is rejected with ValueError.
    """
    spec = V.spec
    h = V.h
    irr = PotentialFunctional(spec, h)
    rel1, coefficients = _local_split(V, lam, irr)
    rel2 = PotentialFunctional(spec, h)
    if spec.d == 3 and 1 <= h < spec.N:
        ch, cn = covariance_cumulative(spec, h), covariance_cumulative(spec, spec.N)
        # W[x, y] = 24 a^(2d) (ch^3 - cn^3)[x - y], gathered like a kernel matrix;
        # sum W (phi_x - phi_y)^2 is row sums on one vertex and -2 W on two
        W = dataclasses.replace(ch, values=ch.values ** 3 - cn.values ** 3).matrix()
        W *= 24.0 * spec.a ** (2 * spec.d)
        for legs, c in (((2,), W.sum(axis=1) + W.sum(axis=0)), ((1, 1), -2.0 * W)):
            rel2.add(2, legs, c)
            irr.add(2, legs, -c)
    return RelevantSplit(rel1=rel1, rel2=rel2, irr=irr, coefficients=coefficients)


def local_coefficients(V: PotentialFunctional, lam: float) -> dict:
    """The coefficients of ``relevant_split``, without its pair block or
    remainder: the relevant local couplings in the normalized X-variables at
    the potential's scale (the d=2 normalization of X is 1/sqrt(h))."""
    return _local_split(V, lam)[1]


def _local_split(V: PotentialFunctional, lam: float, irr: PotentialFunctional | None = None):
    """The local block of ``relevant_split`` and its coefficients; the other
    blocks, with their all-coincident entries zeroed, go into ``irr`` when it
    is given."""
    spec, h = V.spec, V.h
    if spec.d == 2 and h == 0:
        raise ValueError("the X-variables are undefined at h = 0 in d = 2 (sigma = sqrt(h))")
    n = spec.n_sites
    rel1 = PotentialFunctional(spec, h)
    for (o, legs), c in V.blocks.items():
        k = sum(legs)
        if k < 2 or (k in (2, 4) and len(legs) == 1):
            rel1.add(o, legs, c)
            continue
        if k in (2, 4):
            coincident = (np.arange(n),) * len(legs)
            rel1.add(o, (k,), c[coincident])
        if irr is not None:
            if k in (2, 4):
                c = c.copy()
                c[coincident] = 0.0
            irr.add(o, legs, c)
    # coefficients in the rescaled variables
    sig = math.sqrt(h) if spec.d == 2 else spec.gamma ** ((spec.d - 2) * h / 2.0)
    w = spec.a ** spec.d
    total = dict.fromkeys((0, 1, 2, 4), 0.0)
    for (o, legs), c in rel1.blocks.items():
        total[sum(legs)] += lam ** o * (float(c[0]) / (-w) if legs else c / (-w * n))
    return rel1, {
        "lambda_eff": total[4],
        "mu_bar": total[2] / sig ** 2,
        "nu_bar": total[0] / sig ** 4,
        "f_bar": total[1] / sig ** 3,
        "sigma": sig,
    }


def field_independent_part(spec: LatticeSpec, j: int, h: int, lam: float,
                           f=None, cts: Counterterms | None = None,
                           per_order: bool = False):
    """E(j,h): the order-j log Z density with the difference propagator
    C^(<=N) - C^(<=h).  At h=0 this is the full order-j series; at h=N only
    the propagator-free constant counterterm survives."""
    sr = logZ_series(spec, lam, f, j, kernel=difference_kernel(spec, h), cts=cts)
    if per_order:
        return sr.coefficients
    return sr.total(lam)


@dataclass
class RemainderBound:
    """The per-scale remainder estimate R(j,h) and its summability verdict."""

    j: int
    h: int
    lam: float
    B: float
    d: int
    C_j: float
    gamma: float
    value: float

    @property
    def summable(self) -> bool:
        return (4 - self.d) * (self.j + 1) > self.d


def remainder_bound(j: int, h: int, lam: float, B: float, d: int,
                    C_j: float = 1.0, gamma: float = 2.0) -> RemainderBound:
    """R(j,h) = C_j B^(4j) (lambda h^2 gamma^(-(4-d)h))^(j+1) gamma^(dh)."""
    if j < 0 or h < 1 or lam < 0 or B < 0 or C_j < 0 or gamma <= 1:
        raise ValueError("remainder bound needs nonnegative inputs and gamma > 1")
    value = C_j * B ** (4 * j) * (lam * h ** 2 * gamma ** (-(4 - d) * h)) ** (j + 1) * gamma ** (d * h)
    return RemainderBound(j=j, h=h, lam=lam, B=B, d=d, C_j=C_j, gamma=gamma,
                          value=float(value))


def remainder_partial_sums(j: int, lam: float, B: float, d: int,
                           C_j: float = 1.0, gamma: float = 2.0,
                           N_max: int = 64) -> np.ndarray:
    """Partial sums sum_{h<=N} R(j,h) for N = 1..N_max."""
    vals = [remainder_bound(j, h, lam, B, d, C_j, gamma).value
            for h in range(1, N_max + 1)]
    return np.cumsum(vals)
