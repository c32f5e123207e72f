"""The dense potential engine, kept as the test oracle for the vertex-local
one in ``phi4lab.effective_potential``.

Every term is a dense kernel of shape (n_sites,) * degree, keyed by
(order in lambda, degree).  ``gauss_expect`` applies exp(Delta_C / 2) one
pair-contraction step at a time: with L the sum over index pairs i < j of
contracting axes (i, j) with the covariance, t_q = L(t_(q-1)) / q is the sum
over the partial pairings with q pairs.  ``relevant_split`` is the dense
diagonal split.  Only tiny lattices fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from phi4lab.lattice_propagator import LatticeSpec, covariance_band, covariance_cumulative
from phi4lab.feynman_graphs import Counterterms, counterterms
from phi4lab.effective_potential import wick_power


MAX_TENSOR_ENTRIES = 50_000_000


@dataclass
class PotentialFunctional:
    """Finite sum of monomial terms with dense lattice kernels, graded by
    lambda-order.  ``terms[(order, degree)]`` holds the kernel tensor of shape
    (n_sites,) * degree; degree 0 entries are plain floats."""

    spec: LatticeSpec
    h: int
    terms: dict = field(default_factory=dict)

    def copy(self) -> "PotentialFunctional":
        return PotentialFunctional(self.spec, self.h,
                                   {k: (v if np.isscalar(v) else v.copy())
                                    for k, v in self.terms.items()})

    def add_term(self, order: int, degree: int, kernel):
        if degree > 0:
            size = self.spec.n_sites ** degree
            if size > MAX_TENSOR_ENTRIES:
                raise ValueError("kernel tensor too large for the desk-scale engine")
        if (order, degree) in self.terms:
            self.terms[(order, degree)] = self.terms[(order, degree)] + kernel
        else:
            self.terms[(order, degree)] = kernel

    def scale(self, factor: float) -> "PotentialFunctional":
        """Scale every kernel in place; returns self."""
        for key in self.terms:
            self.terms[key] *= factor
        return self

    def add_into(self, acc: "PotentialFunctional") -> "PotentialFunctional":
        """self + acc, summed into acc's kernels in place (acc must own them).
        Terms come in self's order, then acc's others, as in a copying sum:
        later steps add contributions in term order.  Returns acc."""
        for key, ker in self.terms.items():
            if key in acc.terms:
                acc.terms[key] += ker
            else:
                acc.terms[key] = ker if np.isscalar(ker) else ker.copy()
        acc.terms = {**{key: acc.terms[key] for key in self.terms}, **acc.terms}
        return acc

    def times(self, other: "PotentialFunctional", jmax: int) -> "PotentialFunctional":
        """Functional product, truncated to lambda-order jmax."""
        out = PotentialFunctional(self.spec, self.h)
        for (o1, k1), ker1 in self.terms.items():
            for (o2, k2), ker2 in other.terms.items():
                if o1 + o2 > jmax:
                    continue
                key, prod = (o1 + o2, k1 + k2), np.multiply.outer(ker1, ker2)
                if key in out.terms:
                    out.terms[key] += prod  # out owns every kernel it holds
                else:
                    out.add_term(*key, prod)
        return out

    def truncate(self, jmax: int) -> "PotentialFunctional":
        out = PotentialFunctional(self.spec, self.h)
        for (o, k), ker in self.terms.items():
            if o <= jmax:
                out.add_term(o, k, ker)
        return out

    def gauss_expect(self, cov: np.ndarray, new_h: int) -> "PotentialFunctional":
        """Expectation over a Gaussian layer with covariance matrix ``cov``.

        Substitutes field -> lower field + layer and integrates the layer
        exactly, E[K(phi + zeta)] = exp(Delta_C / 2) K.  With L the sum over
        index pairs i < j of contracting axes (i, j) with ``cov``, the terms
        are t_0 = K and t_q = L(t_(q-1)) / q = L^q K / q!, the degree k - 2q
        part with the unpaired indices in their original order.  Each set of
        q disjoint pairs arises q! times among the ordered sequences of q
        L-steps, so t_q is the sum over the partial pairings of K's indices
        with q pairs.  Degree-0 terms are floats.
        """
        out = PotentialFunctional(self.spec, new_h)
        for (o, k), t in self.terms.items():
            out.add_term(o, k, t)
            for q in range(1, k // 2 + 1):
                axes = list(range(t.ndim))
                t = sum(np.einsum(t, axes, cov, [i, j], [a for a in axes if a not in (i, j)])
                        for i, j in itertools.combinations(axes, 2)) / q
                out.add_term(o, k - 2 * q, float(t) if t.ndim == 0 else t)
        return out

    def evaluate(self, phi, lam: float) -> float:
        """Numeric value on a concrete field configuration."""
        phi = np.asarray(phi, dtype=float).ravel()
        total = 0.0
        for (o, k), ker in self.terms.items():
            if k == 0:
                total += lam ** o * float(ker)
                continue
            value = np.asarray(ker)
            for _ in range(k):
                value = value @ phi
            total += lam ** o * float(value)
        return total

    def constant_coefficients(self, jmax: int) -> np.ndarray:
        """Degree-0 part per lambda-order."""
        out = np.zeros(jmax + 1)
        for (o, k), ker in self.terms.items():
            if k == 0 and o <= jmax:
                out[o] += float(ker)
        return out

    def kernel_norms(self) -> dict:
        return {key: float(np.max(np.abs(np.asarray(ker))))
                for key, ker in self.terms.items()}


def _diag_tensor(n: int, degree: int, per_site) -> np.ndarray:
    t = np.zeros((n,) * degree)
    idx = (np.arange(n),) * degree
    t[idx] = per_site
    return t


def wick_quartic_potential(spec: LatticeSpec, h: int, variance: float,
                           prefactor: float = 1.0) -> PotentialFunctional:
    """The order-1 potential  prefactor * a^d sum_x :phi_x^4:_variance."""
    V = PotentialFunctional(spec, h)
    w = spec.a ** spec.d * prefactor
    for degree, coeff in wick_power(4, variance).items():
        if degree == 0:
            V.add_term(1, 0, coeff * w * spec.n_sites)
        else:
            V.add_term(1, degree, _diag_tensor(spec.n_sites, degree, coeff * w))
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
    V.add_term(1, 4, _diag_tensor(n, 4, -w))
    for order in (1, 2):
        if order < len(cts.mu_poly) and cts.mu_poly[order] != 0.0 and order <= jmax:
            V.add_term(order, 2, _diag_tensor(n, 2, -w * cts.mu_poly[order]))
    if cts.nu_poly is not None:
        for order, c in enumerate(cts.nu_poly):
            if c != 0.0 and order <= jmax:
                V.add_term(order, 0, -w * n * c)
    if f is not None:
        V.add_term(0, 1, -w * spec.source(f))
    return V


def truncated_integrate(V: PotentialFunctional, j: int,
                        band_cov: np.ndarray | None = None) -> PotentialFunctional:
    """One recursion step: integrate the scale-h layer to order j in lambda."""
    if j > 3:
        raise ValueError("recursion order capped at 3")
    spec = V.spec
    h = V.h
    if h < 1:
        raise ValueError("no layer left to integrate")
    if band_cov is None:
        band_cov = covariance_band(spec, h)
    if hasattr(band_cov, "matrix"):
        band_cov = band_cov.matrix()
    # Cumulants are summed in place, in the order of the copying sums (so the
    # kernels are the same); each big operand is dropped once used.
    m1 = V.gauss_expect(band_cov, h - 1)
    out = m1.truncate(j)
    if j >= 2:
        V2 = V.times(V, j)
        m2 = V2.gauss_expect(band_cov, h - 1)
        out = out.add_into(m2.add_into(m1.times(m1, j).scale(-1.0)).scale(0.5))
    if j >= 3:
        third = m1.times(m2, j).scale(-3.0)
        del m2
        third = V2.times(V, j).gauss_expect(band_cov, h - 1).add_into(third)
        del V2
        cube = m1.times(m1, j).times(m1, j).scale(2.0)
        out = out.add_into(third.add_into(cube).scale(1.0 / 6.0))
    return out.truncate(j)


def flow_constant(spec: LatticeSpec, lam: float, f, j: int,
                  cts: Counterterms | None = None) -> np.ndarray:
    """Iterate the recursion from scale N down to 0, return the constant
    density per lambda-order (the field-independent part of V_{j;0})."""
    if cts is None:
        cts = counterterms(spec, lam, nu_order=j)
    V = bare_potential(spec, f=f, cts=cts, lam=lam, jmax=j)
    for h in range(spec.N, 0, -1):
        V = truncated_integrate(V, j)
    vol = spec.n_sites * spec.a ** spec.d
    return V.constant_coefficients(j) / vol


@dataclass
class RelevantSplit:
    """Local relevant block, d=3 nonlocal pair block, remainder and constant."""

    rel1: PotentialFunctional
    rel2: PotentialFunctional
    irr: PotentialFunctional
    E_density: np.ndarray
    coefficients: dict


def relevant_split(V: PotentialFunctional, lam: float) -> RelevantSplit:
    """Split a potential into relevant local block, d=3 pair block and remainder.

    The local block collects the exactly diagonal quartic/quadratic parts, the
    field-linear part and the constant; its coefficients are reported in the
    normalized X-variables at the potential's scale (the d=2 normalization of
    X is 1/sqrt(h)).  In d=3 with h < N the canonical pair kernel
    24 lambda^2 (C^(<=h)3 - C^(<=N)3) on (phi_eta - phi_eta')^2 is split off;
    in d=2 that block is identically empty.

    The remainder ``irr`` holds V's own kernels for the terms it leaves as
    they are (degrees 3 and above 4); every term it changes is a new array,
    so nothing here writes to V, but a later in-place write to a shared
    kernel of V or of irr shows in both.
    """
    spec = V.spec
    h = V.h
    n = spec.n_sites
    rel1 = PotentialFunctional(spec, h)
    irr = PotentialFunctional(spec, h, dict(V.terms))
    for (o, k), ker in V.terms.items():
        if k in (2, 4):
            diag_vals = np.asarray(ker)[(np.arange(n),) * k]
            diag = _diag_tensor(n, k, diag_vals)
            rel1.add_term(o, k, diag)
            irr.terms[(o, k)] = ker - diag
        elif k in (0, 1):
            rel1.add_term(o, k, ker)
            irr.terms[(o, k)] = (ker - ker) if k == 0 else np.zeros_like(ker)
    rel2 = PotentialFunctional(spec, h)
    if spec.d == 3 and h < spec.N:
        ch = covariance_cumulative(spec, h) if h >= 1 else None
        cn = covariance_cumulative(spec, spec.N)
        if ch is not None:
            W = 24.0 * (ch.matrix() ** 3 - cn.matrix() ** 3) * spec.a ** (2 * spec.d)
            T = -2.0 * W
            row = W.sum(axis=1) + W.sum(axis=0)
            T[np.arange(n), np.arange(n)] += row
            rel2.add_term(2, 2, T)
            if (2, 2) in irr.terms:
                irr.terms[(2, 2)] = irr.terms[(2, 2)] - T
            else:
                irr.add_term(2, 2, -T)
    # coefficients in the rescaled variables
    sig = math.sqrt(h) if spec.d == 2 else spec.gamma ** ((spec.d - 2) * h / 2.0)
    w = spec.a ** spec.d
    quartic = quad = lin = 0.0
    const = 0.0
    for (o, k), ker in rel1.terms.items():
        if k == 4:
            quartic += lam ** o * float(np.asarray(ker)[(0,) * 4]) / (-w)
        elif k == 2:
            quad += lam ** o * float(np.asarray(ker)[(0, 0)]) / (-w)
        elif k == 1:
            lin += lam ** o * float(np.asarray(ker)[0]) / (-w)
        elif k == 0:
            const += lam ** o * float(ker) / (-w * n)
    coefficients = {
        "lambda_eff": quartic,
        "mu_bar": quad / sig ** 2 if sig else quad,
        "nu_bar": const / sig ** 4,
        "f_bar": lin / sig ** 3,
        "sigma": sig,
    }
    vol = n * spec.a ** spec.d
    E = V.constant_coefficients(max(o for o, _ in V.terms) if V.terms else 0) / vol
    return RelevantSplit(rel1=rel1, rel2=rel2, irr=irr, E_density=E,
                         coefficients=coefficients)
