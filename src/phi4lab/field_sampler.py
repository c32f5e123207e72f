"""Gaussian layer sampling, multiscale assembly, norms, tails and field regions.

Each scale band h contributes an independent Gaussian layer whose covariance
is exactly the band kernel; summing the layers over h = 1..N reproduces a
sample of the full regularized field.  Layers are sampled spectrally: white
noise is filtered by the square root of the band's mode weights, which is an
exact (not approximate) Gaussian sampler and is deterministic given
(spec, h, seed).  The weights are even in p, so the filter runs on the
real-input half spectrum (rfftn/irfftn), which holds every independent mode.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice_propagator import InfeasibleSizeError, LatticeSpec, _wrapped_windows, scale_range_kernel

__all__ = [
    "FieldLayer",
    "MultiscaleField",
    "RegionClassification",
    "sample_layer",
    "assemble",
    "hoelder_norm",
    "tail_stats",
    "classify_regions",
    "field_threshold",
    "pavement_cubes",
]

# Hoelder exponent of the pair field Y and of the layer norm's increment term
HOELDER_EPS = 0.25


def field_threshold(lam: float, scale: float = 1.0) -> float:
    """Large-field threshold base B, proportional to log(e + 1/lambda)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return scale * math.log(math.e + 1.0 / lam)


@dataclass(frozen=True)
class FieldLayer:
    """One single-scale Gaussian layer, stored on the finest lattice.

    ``values`` carries the band field (covariance equal to the band kernel
    C^(h)); the normalized layer variable z^(h) differs from it by the
    deterministic factor gamma^((d-2)h/2).
    """

    spec: LatticeSpec
    h: int
    seed: int
    values: np.ndarray = field(repr=False)

    @property
    def z(self) -> np.ndarray:
        """The unit-size layer variable z^(h) (same as values when d=2)."""
        return _unit_size(self.values, self.spec, self.h)


def _unit_size(values: np.ndarray, spec: LatticeSpec, h: int) -> np.ndarray:
    return values * spec.gamma ** (-(spec.d - 2) * h / 2.0)


# Site values per batched FFT (128 kB of float64 noise), and per block of
# shifted fields in _displacement_blocks.  Larger chunks were no faster for
# tail_stats on 8^3 and 128^2 lattices and raised peak memory.
_CHUNK_SITES = 1 << 14
MAX_D2_PAIRS = 10_000_000  # a list of tuple pairs: about 2 GB


def _band_fields(spec: LatticeSpec, h: int, seeds):
    """Scale-h band fields for consecutive seeds, in chunks of about
    _CHUNK_SITES site values with a leading sample axis.

    Each seed gets its own noise stream, SeedSequence(seed, spawn_key=(h,)),
    filtered by the square root of the band weights over the lattice axes, so
    a seed's field does not depend on the chunk it lands in.  The weights
    depend on p^2 alone, so they are even in p and the filter keeps real
    noise real: the rfftn half spectrum (the last axis cut to n//2 + 1 modes)
    holds every independent mode, and irfftn with the lattice shape, odd
    sides included, gives the real part of the full complex filter up to
    rounding.
    """
    n = spec.n_side
    root_w = np.sqrt(scale_range_kernel(spec, h - 1, h).mode_weights[..., :n // 2 + 1])
    root_w *= spec.a ** (-spec.d / 2.0)
    axes = tuple(range(1, spec.d + 1))
    per_chunk = max(1, _CHUNK_SITES // spec.n_sites)
    seeds = list(seeds)
    for start in range(0, len(seeds), per_chunk):
        chunk = seeds[start:start + per_chunk]
        noise = np.empty((len(chunk),) + spec.shape)
        for row, s in zip(noise, chunk):
            np.random.default_rng(np.random.SeedSequence(
                entropy=int(s) & ((1 << 64) - 1), spawn_key=(h,))).standard_normal(out=row)
        spectrum = np.fft.rfftn(noise, axes=axes)
        spectrum *= root_w
        yield np.fft.irfftn(spectrum, s=spec.shape, axes=axes)


def sample_layer(spec: LatticeSpec, h: int, seed: int) -> FieldLayer:
    """Exact spectral Gaussian sample of the scale-h band field."""
    if not 1 <= h <= spec.N:
        raise ValueError(f"scale h={h} outside 1..{spec.N}")
    values = next(_band_fields(spec, h, [seed]))[0]
    return FieldLayer(spec=spec, h=h, seed=int(seed), values=values)


@dataclass
class MultiscaleField:
    """Layers 1..N plus the assembled cumulative and normalized fields."""

    spec: LatticeSpec
    layers: dict

    def phi(self, h: int | None = None) -> np.ndarray:
        """Assembled field phi^(<=h), the sum of layer band fields up to h."""
        h = self.spec.N if h is None else h
        out = np.zeros(self.spec.shape)
        for k in range(1, h + 1):
            out = out + self.layers[k].values
        return out

    def X(self, h: int | None = None) -> np.ndarray:
        """Normalized field X^(h); the d=2 normalization is 1/sqrt(h)."""
        h = self.spec.N if h is None else h
        p = self.phi(h)
        if self.spec.d == 2:
            return p / math.sqrt(h)
        return p * self.spec.gamma ** (-(self.spec.d - 2) * h / 2.0)

    def Y(self, h: int | None = None):
        """Pair field Y^(h) on displacements shorter than 1/m.

        Returns (displacements, array): the read-only (k, d) table of
        _short_displacements and an array where array[k] has, for every site
        x, the value (phi_x - phi_{x+delta_k}) / (gamma^h |delta_k|)^HOELDER_EPS.
        """
        h = self.spec.N if h is None else h
        disps, _ = _short_displacements(self.spec)
        out = np.empty((len(disps),) + self.spec.shape)
        k = 0
        for block, y in self._pair_fields(h):
            out[k:k + len(block)] = y
            k += len(block)
        return disps, out

    def _pair_fields(self, h: int):
        """(deltas, Y^(h) on them) per block of _displacement_blocks, the
        pair values stacked along a leading displacement axis."""
        p = self.phi(h)
        scale = self.spec.gamma ** h
        for disps, dists, shifted in _displacement_blocks(p, self.spec):
            y = np.subtract(p, shifted, out=shifted)
            y /= _denominators([(scale * r) ** HOELDER_EPS for r in dists], y.ndim)
            yield disps, y


@functools.lru_cache(maxsize=8)
def _short_displacements(spec: LatticeSpec):
    """Nonzero lattice displacements with torus distance < 1/m, in C order,
    as a (k, d) int table and their k distances; both read-only."""
    n = spec.n_side
    coords = np.arange(n)
    torus = np.minimum(coords, n - coords) * spec.a
    grids = np.meshgrid(*([torus] * spec.d), indexing="ij")
    dist = np.sqrt(sum(g * g for g in grids))
    mask = (dist > 0) & (dist < 1.0 / spec.m)
    disps, dists = np.argwhere(mask), dist[mask]
    disps.setflags(write=False)
    dists.setflags(write=False)
    return disps, dists


def _displacement_blocks(z: np.ndarray, spec: LatticeSpec):
    """The short displacements in order, in blocks (disps, dists, shifted).

    shifted[k] is z at x + disps[k] for every site x, np.roll(z, -disps[k])
    over the lattice axes (the last spec.d axes of z; any leading axes are
    samples), so shifted has shape (block, *z.shape).  A block is one fancy
    index gather from the wrap-padded windows of z, about _CHUNK_SITES
    values, and is the caller's to overwrite.
    """
    disps, dists = _short_displacements(spec)
    windows = _wrapped_windows(z, spec.d)
    per_block = max(1, _CHUNK_SITES // z.size)
    for start in range(0, len(disps), per_block):
        block = disps[start:start + per_block]
        yield block, dists[start:start + per_block], windows[tuple(block.T)]


def _denominators(powers: list, ndim: int) -> np.ndarray:
    """Per-displacement scalar powers as a column against (block, ...) arrays.

    The powers are taken one by one as scalars: numpy's vectorized pow can
    differ from the scalar one in the last bit, and the per-cube oracle
    hoelder_norm uses scalars.
    """
    return np.array(powers).reshape((-1,) + (1,) * (ndim - 1))


def assemble(layers) -> MultiscaleField:
    """Combine layers covering scales 1..N of a single spec."""
    layers = list(layers)
    if not layers:
        raise ValueError("no layers given")
    spec = layers[0].spec
    table = {}
    for layer in layers:
        if layer.spec != spec:
            raise ValueError("layers come from different specs")
        table[layer.h] = layer
    missing = [h for h in range(1, spec.N + 1) if h not in table]
    if missing:
        raise ValueError(f"missing scales {missing}")
    return MultiscaleField(spec=spec, layers=table)


def pavement_cubes(spec: LatticeSpec, level: int):
    """Origins and side (in sites) of the boxes of the scale-``level`` pavement.

    Boxes of the pavement Q_level have physical side 1/(m gamma^level), which
    is gamma^(N-level) lattice spacings; the side is clamped to at least one
    site when that is not an integer.
    """
    side = max(1, int(round(spec.gamma ** (spec.N - level))))
    return list(itertools.product(range(0, spec.n_side, side), repeat=spec.d)), side


def hoelder_norm(values: np.ndarray, spec: LatticeSpec, origin, side: int,
                 tau: int | None = None) -> float:
    """Sup-plus-increment norm of a field over one pavement cube.

    max of |z_x| and of |z_x| + tau |z_x - z_eta| / |x - eta|^HOELDER_EPS over x in
    the cube and eta any site at torus distance 0 < |x - eta| < 1/m.  tau
    defaults to 0 in d=2 and 1 in d=3.  This per-cube form is the oracle for
    the whole-lattice engine of layer_norm_profile and tail_stats.
    """
    if tau is None:
        tau = 0 if spec.d == 2 else 1
    n = spec.n_side
    cube_slices = tuple(
        np.arange(o, o + side) % n for o in origin
    )
    cube_idx = np.array(np.meshgrid(*cube_slices, indexing="ij")).reshape(spec.d, -1).T
    cube_vals = values[tuple(cube_idx.T)]
    best = float(np.max(np.abs(cube_vals)))
    if tau == 0:
        return best
    disps, dists = _short_displacements(spec)
    for delta, r in zip(disps, dists):
        shifted = values[tuple(((cube_idx + delta) % n).T)]
        cand = np.abs(cube_vals) + tau * np.abs(cube_vals - shifted) / r ** HOELDER_EPS
        best = max(best, float(np.max(cand)))
    return best


def _site_norms(z: np.ndarray, spec: LatticeSpec, tau: int | None) -> np.ndarray:
    """Per-site Hoelder quantity q_x, whose maximum over a cube is its norm.

    q_x = max(|z_x|, max over short delta of |z_x| + tau |z_x - z_{x+delta}| / r^HOELDER_EPS),
    the whole lattice shifted by a block of displacements at a time (see
    _displacement_blocks), with the elementwise operations of hoelder_norm
    (additions and products commute exactly).  The lattice axes are the last
    spec.d axes of z; any leading axes are samples.
    """
    if tau is None:
        tau = 0 if spec.d == 2 else 1
    absz = np.abs(z)
    if tau == 0:
        return absz
    q = absz.copy()
    for _, dists, shifted in _displacement_blocks(z, spec):
        cand = np.abs(np.subtract(z, shifted, out=shifted), out=shifted)
        cand *= tau
        cand /= _denominators([r ** HOELDER_EPS for r in dists], cand.ndim)
        cand += absz
        np.maximum(q, cand.max(axis=0), out=q)
    return q


def _cube_maxima(q: np.ndarray, spec: LatticeSpec, side: int) -> np.ndarray:
    """Maximum of q over each cube of the pavement with the given side, in
    the order of pavement_cubes.

    The last cube along an axis wraps round when side does not divide n_side.
    """
    n, d = spec.n_side, spec.d
    k = -(-n // side)
    if k * side != n:
        q = q[np.ix_(*[np.arange(k * side) % n] * d)]
    return q.reshape((k, side) * d).max(axis=tuple(range(1, 2 * d, 2))).ravel()


def layer_norm_profile(layer: FieldLayer, level: int | None = None,
                       tau: int | None = None):
    """Hoelder norms of a layer over every cube of the pavement Q_level."""
    spec = layer.spec
    level = layer.h if level is None else level
    origins, side = pavement_cubes(spec, level)
    return origins, _cube_maxima(_site_norms(layer.z, spec, tau), spec, side).tolist()


def tail_stats(spec: LatticeSpec, h: int, B_grid, n_samples: int = 1000,
               seed: int = 0, tau: int | None = None) -> dict:
    """Monte Carlo tail statistics of the layer norm over the Q_h pavement.

    Estimates P(max over cubes of ||z||_Delta <= B) for each B in B_grid with
    Wilson intervals, and fits log-exceedance against B^2 (a negative slope is
    the expected Gaussian-tail signature).
    """
    if n_samples < 1000:
        raise ValueError("need at least 10^3 samples for tail estimates")
    B_grid = np.asarray(B_grid, dtype=float)
    # The Q_h cubes cover the lattice, so the largest cube norm of a sample
    # is its largest per-site quantity.
    lattice_axes = tuple(range(1, spec.d + 1))
    maxima = np.concatenate([
        _site_norms(_unit_size(values, spec, h), spec, tau).max(axis=lattice_axes)
        for values in _band_fields(spec, h, range(seed, seed + n_samples))])
    rows = []
    z95 = 1.959963984540054
    for B in B_grid:
        k = int(np.sum(maxima > B))
        p = k / n_samples
        # Wilson score interval for the exceedance probability.
        denom = 1 + z95 ** 2 / n_samples
        center = (p + z95 ** 2 / (2 * n_samples)) / denom
        half = z95 * math.sqrt(p * (1 - p) / n_samples + z95 ** 2 / (4 * n_samples ** 2)) / denom
        rows.append({"B": float(B), "count": k, "exceedance": p,
                     "ci_low": max(0.0, center - half), "ci_high": min(1.0, center + half)})
    usable = [r for r in rows if 0 < r["exceedance"] < 1]
    if len(usable) < 3:
        raise ValueError("degenerate tail fit: fewer than 3 usable grid points")
    xs = np.array([r["B"] ** 2 for r in usable])
    ys = np.log([r["exceedance"] for r in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {"rows": rows, "slope": float(slope), "intercept": float(intercept),
            "n_samples": n_samples, "maxima": maxima}


@dataclass
class RegionClassification:
    """Large-field regions at one scale: site set D1, pair set D2, bad cubes R."""

    B: float
    h: int
    D1: list
    D2: list
    R: list
    chi_B: int

    def __post_init__(self):
        if self.chi_B != (0 if self.R else 1):
            raise ValueError(f"chi_B={self.chi_B} contradicts {len(self.R)} bad cubes")


def classify_regions(fld: MultiscaleField, h: int, B: float,
                     tau: int | None = None) -> RegionClassification:
    """Classify large-field sites, pairs and cubes at scale h with base B.

    D1 collects sites where |X^(h)| > B h^4; D2 (d=3 only) pairs closer than
    1/m where |Y^(h)| > B h^4; R the Q_h cubes where the layer norm exceeds
    B h^2.  chi_B is 1 exactly when R is empty.  A D2 beyond MAX_D2_PAIRS
    pairs raises InfeasibleSizeError before the list grows past it.
    """
    spec = fld.spec
    if not 1 <= h <= spec.N:
        raise ValueError(f"scale h={h} outside 1..{spec.N}")
    if B <= 0:
        raise ValueError("threshold base B must be positive")
    X = fld.X(h)
    d1 = list(map(tuple, np.argwhere(np.abs(X) > B * h ** 4).tolist()))
    d2 = []
    if spec.d == 3:
        # displacement outer, sites in C order inner: argwhere's row order
        for disps, y in fld._pair_fields(h):
            mask = np.abs(y, out=y) > B * h ** 4
            if not mask.any():
                continue
            hit = np.argwhere(mask)
            if len(d2) + len(hit) > MAX_D2_PAIRS:
                raise InfeasibleSizeError(f"D2 would pass MAX_D2_PAIRS = {MAX_D2_PAIRS}; raise B")
            eta = hit[:, 1:]
            etap = (eta + disps[hit[:, 0]]) % spec.n_side
            d2.extend(zip(map(tuple, eta.tolist()), map(tuple, etap.tolist())))
    origins, norms = layer_norm_profile(fld.layers[h], level=h, tau=tau)
    bad = [origin for origin, norm in zip(origins, norms) if norm > B * h ** 2]
    return RegionClassification(B=B, h=h, D1=d1, D2=d2, R=bad, chi_B=1 if not bad else 0)
