"""Regularized propagators on a periodic lattice and their scale-band decomposition.

The field lives on a periodic lattice of spacing a = (m gamma^N)^-1 inside a
box of physical side L (with L*m a positive integer).  Momenta are the finite
Fourier modes p in (2 pi / L) Z^d with components in (-pi/a, pi/a].  All
covariances keep the continuum symbol p^2 on the retained modes, so the
identity

    chi_N(|p|) / (p^2 + m^2)
        = 1/(p^2 + m^2) - 1/(p^2 + gamma^(2N) m^2)
        = sum_{h=1..N} [ 1/(p^2 + gamma^(2(h-1)) m^2)
                         - 1/(p^2 + gamma^(2h) m^2) ]

holds to rounding, band by band.

Every kernel here is the mode sum over one scale range (lo, hi], open at lo
and closed at hi:

    C^(lo, hi](p) = 1/(p^2 + gamma^(2 lo) m^2) - 1/(p^2 + gamma^(2 hi) m^2)

The cumulative covariance C^(<=h) is the range (0, h], the band C^(h) is
(h-1, h] and the difference propagator C^(<=N) - C^(<=h) is (h, N].

``scale_range_kernel`` is memoized per (spec, lo, hi) in one bounded LRU
cache, so each kernel is built once per process; its arrays are read-only.
``smear`` applies a^d C to a source by FFT.  The recursion and the per-graph
oracle read C(0) from ``at_zero`` and the dense matrix, only for a line
between two vertices, through ``_shared_matrix``: a kernel of up to 1024
sites keeps its read-only matrix (8 MiB at most) for as long as it lives.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatticeSpec",
    "PropagatorKernel",
    "BoundReport",
    "regulator_chi",
    "scale_range_kernel",
    "covariance_cumulative",
    "covariance_band",
    "difference_kernel",
    "bound_report",
    "InfeasibleSizeError",
]

MAX_MATRIX_SITES = 2 ** 14  # the largest dense matrix(): 2 GiB of float64
MAX_TENSOR_ENTRIES = 50_000_000  # the largest recursion block or MC array


class InfeasibleSizeError(ValueError):
    """Raised by every size or order guard before the large allocation."""


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization of the box: dimension, side, mass, scale ratio, cutoff.

    L is the physical box side; L*m must be a positive integer (the side is an
    integer multiple of the correlation length 1/m).  The lattice spacing is
    a = 1/(m gamma^N) and there are (L m gamma^N)^d sites.
    """

    d: int
    L: float
    m: float = 1.0
    gamma: float = 2.0
    N: int = 1

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.gamma <= 1:
            raise ValueError("scale ratio gamma must exceed 1")
        if self.N < 1:
            raise ValueError("cutoff index N must be >= 1")
        lm = self.L * self.m
        if self.L <= 0 or abs(lm - round(lm)) > 1e-9 or round(lm) < 1:
            raise ValueError("box side L must be a positive integer multiple of 1/m")
        side = self.L * self.m * self.gamma ** self.N
        if abs(side - round(side)) > 1e-6 or round(side) < 1:
            raise ValueError("L*m*gamma^N sites per side must be a positive integer")

    @property
    def a(self) -> float:
        """Lattice spacing, a * gamma^N * m = 1."""
        return 1.0 / (self.m * self.gamma ** self.N)

    @property
    def n_side(self) -> int:
        return int(round(self.L * self.m * self.gamma ** self.N))

    @property
    def shape(self) -> tuple:
        return (self.n_side,) * self.d

    @property
    def n_sites(self) -> int:
        return self.n_side ** self.d

    @property
    def volume(self) -> float:
        return self.L ** self.d

    def momentum_sq(self) -> np.ndarray:
        """Grid of p^2 over the mode set, in fftfreq layout."""
        p1 = 2.0 * np.pi * np.fft.fftfreq(self.n_side, d=self.a)
        grids = np.meshgrid(*([p1] * self.d), indexing="ij")
        return sum(g * g for g in grids)

    def source(self, f=None) -> np.ndarray:
        """A source as a flat float array over the sites (zeros for None).

        Rejects a source whose length is not n_sites or that breaks |f| <= 1.
        """
        if f is None:
            return np.zeros(self.n_sites)
        arr = np.asarray(f, dtype=float).ravel()
        if arr.size != self.n_sites:
            raise ValueError(f"source has {arr.size} entries, expected {self.n_sites}")
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise ValueError("external field must satisfy |f| <= 1")
        return arr

    def canonical_hash(self) -> str:
        """Stable hash of the defining fields, recorded in run manifests."""
        payload = json.dumps(
            {"d": self.d, "L": self.L, "m": self.m, "gamma": self.gamma, "N": self.N},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def regulator_chi(p_sq, spec: LatticeSpec):
    """Momentum-space regulator chi_N(|p|) = m^2 (gamma^2N - 1)/(p^2 + gamma^2N m^2)."""
    g2n = spec.gamma ** (2 * spec.N) * spec.m ** 2
    return spec.m ** 2 * (spec.gamma ** (2 * spec.N) - 1.0) / (np.asarray(p_sq) + g2n)


def _range_weights(spec: LatticeSpec, lo: int, hi: int) -> np.ndarray:
    """Mode weights 1/(p^2 + gamma^(2 lo) m^2) - 1/(p^2 + gamma^(2 hi) m^2)."""
    p2 = spec.momentum_sq()
    m2 = spec.m ** 2
    return 1.0 / (p2 + spec.gamma ** (2 * lo) * m2) - 1.0 / (p2 + spec.gamma ** (2 * hi) * m2)


def _wrapped_windows(a: np.ndarray, d: int) -> np.ndarray:
    """Read-only view w of every torus shift of a over its last d axes.

    w[s] is a[..., x + s] with x + s taken mod n, that is np.roll(a, -s) over
    those axes, for each start s in [0, n]^d.  It is the sliding-window view
    of a wrap-padded by n along the lattice axes (a tiled twice along each),
    so only the padded copy is stored.  The shape is (n + 1,) * d + a.shape:
    any leading axes of a come after the start axes.  The view is built
    from the padded strides: sliding_window_view gives the same view, but
    its as_strided round trip left a 0.94 MB allocation live late in 30-s
    perfbench fields runs (peak RSS +0.8 MB).  The ndarray constructor
    still checks the strides against the buffer.
    """
    lead, n = a.ndim - d, a.shape[-1]
    padded = np.tile(a, (1,) * lead + (2,) * d)
    windows = np.ndarray((n + 1,) * d + a.shape, dtype=padded.dtype, buffer=padded,
                         strides=padded.strides[lead:] + padded.strides)
    windows.flags.writeable = False
    return windows


@dataclass(frozen=True)
class PropagatorKernel:
    """Translation-invariant covariance table for one scale range (lo, hi].

    ``values`` is indexed by lattice displacement (periodic); ``mode_weights``
    are the nonnegative Fourier coefficients on the mode set.
    """

    spec: LatticeSpec
    band: tuple  # the scale range (lo, hi]
    mode_weights: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @staticmethod
    def from_weights(spec: LatticeSpec, band: tuple, weights: np.ndarray) -> "PropagatorKernel":
        values = np.fft.ifftn(weights).real / spec.a ** spec.d
        return PropagatorKernel(spec=spec, band=band, mode_weights=weights, values=values)

    @property
    def at_zero(self) -> float:
        return float(self.values[(0,) * self.spec.d])

    def smear(self, f) -> np.ndarray:
        """a^d (C f) as a flat array over the sites, for a source f over them,
        by FFT: C is circulant with the mode weights as its spectrum, so no
        dense matrix is built."""
        f = np.asarray(f, dtype=float).reshape(self.spec.shape)
        return np.fft.ifftn(self.mode_weights * np.fft.fftn(f)).real.ravel()

    def matrix(self) -> np.ndarray:
        """Dense site-by-site covariance matrix C[x, y] = values[x - y].

        Row x is the flipped table shifted by n - 1 - x, a window of its
        wrap-padded view; the one copy is the matrix itself.
        """
        if self.spec.n_sites > MAX_MATRIX_SITES:
            raise InfeasibleSizeError(f"a dense {self.spec.n_sites}-site covariance matrix "
                                      f"exceeds MAX_MATRIX_SITES = {MAX_MATRIX_SITES}")
        d, n = self.spec.d, self.spec.n_side
        windows = _wrapped_windows(self.values[(slice(None, None, -1),) * d], d)
        rows = windows[(slice(n - 1, None, -1),) * d]
        out = np.empty((self.spec.n_sites, self.spec.n_sites))
        out.reshape(rows.shape)[...] = rows
        return out

    def displacement_distances(self) -> np.ndarray:
        """Euclidean torus distance (in physical units) for every displacement."""
        n = self.spec.n_side
        coords = np.arange(n)
        coords = np.minimum(coords, n - coords) * self.spec.a
        grids = np.meshgrid(*([coords] * self.spec.d), indexing="ij")
        return np.sqrt(sum(g * g for g in grids))


@functools.lru_cache(maxsize=32)
def scale_range_kernel(spec: LatticeSpec, lo: int, hi: int) -> PropagatorKernel:
    """Kernel of the scales in (lo, hi]; the empty range lo == hi gives zero.

    Memoized per (spec, lo, hi), with read-only arrays shared by all callers.
    An entry holds 2 n_sites float64: the 32 entries hold at most 8 MiB at
    128^2, 16 MiB at 32^3 and 128 MiB at 64^3.
    """
    if not 0 <= lo <= hi <= spec.N:
        raise ValueError(f"scale range ({lo}, {hi}] outside (0, {spec.N}]")
    kernel = PropagatorKernel.from_weights(spec, (lo, hi), _range_weights(spec, lo, hi))
    kernel.mode_weights.flags.writeable = kernel.values.flags.writeable = False
    return kernel


_MEMO_SITES = 1024  # a kept matrix holds at most 8 MiB


def _shared_matrix(kernel: PropagatorKernel) -> np.ndarray:
    """Read-only dense matrix of ``kernel``, built once per kernel instance.

    A kernel on at most _MEMO_SITES sites keeps its matrix as an attribute,
    so the matrix lives exactly as long as its kernel; a kernel made by
    dataclasses.replace is a new instance and builds its own.  The 32
    kernels scale_range_kernel keeps hold at most 256 MiB of matrices.
    """
    matrix = vars(kernel).get("_matrix")
    if matrix is None:
        matrix = kernel.matrix()
        matrix.flags.writeable = False
        if kernel.spec.n_sites <= _MEMO_SITES:
            object.__setattr__(kernel, "_matrix", matrix)
    return matrix


def covariance_cumulative(spec: LatticeSpec, h: int) -> PropagatorKernel:
    """Kernel of C^(<=h): mode weight chi_h/(p^2+m^2) on the retained modes."""
    return scale_range_kernel(spec, 0, h)


def covariance_band(spec: LatticeSpec, h: int) -> PropagatorKernel:
    """Single-scale kernel C^(h); summing bands 1..N telescopes to cumulative(N)."""
    return scale_range_kernel(spec, h - 1, h)


def difference_kernel(spec: LatticeSpec, h: int) -> PropagatorKernel:
    """Kernel of C^(<=N) - C^(<=h); for h=0 this is the full cumulative kernel."""
    return scale_range_kernel(spec, h, spec.N)


# Hoelder exponent of the increment bound fitted by bound_report
BOUND_EPS = 0.5


@dataclass
class BoundReport:
    """Fitted decay/amplitude/regularity constants of a kernel, with residuals."""

    decay_rate: float
    amplitude: float
    hoelder_c: float
    hoelder_eps: float
    residuals: dict


def bound_report(kernel: PropagatorKernel) -> BoundReport:
    """Fit |C(x)| <= amplitude * exp(-rate |x|) and the small-distance increment bound.

    The exponential fit uses displacement classes with 0 < |x| <= half the box,
    the Hoelder fit uses increments between displacements below 1/m.  Constants
    are reported as fitted; nothing is asserted about their values here.
    """
    spec = kernel.spec
    dist = kernel.displacement_distances().ravel()
    vals = kernel.values.ravel()
    cutoff = spec.L / 2.0
    keep = (dist > 0) & (dist <= cutoff) & (np.abs(vals) > 1e-300)
    if keep.sum() < 3:
        raise ValueError("too few displacement classes to fit a decay law")
    x = dist[keep]
    y = np.log(np.abs(vals[keep]))
    slope, intercept = np.polyfit(x, y, 1)
    resid_decay = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))

    # Increment bound |C(x) - C(x+delta)| <= c (m |delta|)^BOUND_EPS from pairs below 1/m.
    near = (dist > 0) & (dist < 1.0 / spec.m)
    if near.sum() < 2:
        raise ValueError("too few displacement classes below 1/m for the increment fit")
    c0 = kernel.at_zero
    incr = np.abs(c0 - vals[near])
    dd = (spec.m * dist[near]) ** BOUND_EPS
    good = incr > 1e-300
    if good.sum() < 1:
        hoelder_c, resid_h = 0.0, 0.0
    else:
        ratios = incr[good] / dd[good]
        hoelder_c = float(ratios.max())
        resid_h = float(np.std(ratios))
    return BoundReport(
        decay_rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        hoelder_c=hoelder_c,
        hoelder_eps=BOUND_EPS,
        residuals={"decay_rms": resid_decay, "hoelder_spread": resid_h},
    )
