"""Reference values for the benchmark's correctness checks.

Nothing here imports phi4lab.  Each reference is a closed form evaluated
with plain numpy, so an engine bug cannot agree with it through a shared
helper.  Lattice specs are read only through their fields (d, L, m,
gamma, N, a, n_side).
"""

import numpy as np


def propagator_matrix(spec, lo, hi):
    """Dense covariance of the scale range (lo, hi] by a direct mode sum.

    C[x, y] = L^-d sum_p cos(p.(x - y)) w(p) with
    w(p) = 1/(p^2 + gamma^(2 lo) m^2) - 1/(p^2 + gamma^(2 hi) m^2)
    over the modes p in (2 pi / L) Z^d with components in (-pi/a, pi/a].
    Sites are numbered in C order, as np.ravel_multi_index numbers them.
    """
    n, d = spec.n_side, spec.d
    k = np.arange(n // 2 - n + 1, n // 2 + 1)
    modes = np.stack(np.meshgrid(*([2 * np.pi * k / spec.L] * d), indexing="ij"), -1).reshape(-1, d)
    sites = np.indices((n,) * d).reshape(d, -1).T * spec.a
    p2 = np.sum(modes ** 2, axis=1)
    m2 = spec.m ** 2
    w = 1.0 / (p2 + spec.gamma ** (2 * lo) * m2) - 1.0 / (p2 + spec.gamma ** (2 * hi) * m2)
    phase = sites @ modes.T
    cos, sin = np.cos(phase), np.sin(phase)
    return ((cos * w) @ cos.T + (sin * w) @ sin.T) / spec.L ** d


def gaussian_shift_coefficients(C, f, spec):
    """Orders 0 and 1 in lambda of (1/|Lambda|) log(Z(f)/Z(0)).

    With the source shifting the Gaussian mean to u = -a^d C f, order 0 is
    a^d f.C.f / (2 n).  At order 1 the quadratic counterterm -6 C_00 cancels
    the 6 C_00 u^2 of E[(u + xi)^4], leaving -sum_x u_x^4 / n.
    """
    w = spec.a ** spec.d
    n = len(f)
    u = w * (C @ f)
    return w * float(f @ C @ f) / (2 * n), -float(np.sum(u ** 4)) / n


def close(value, reference, rel, floor=0.0):
    """|value - reference| <= rel |reference| + floor, elementwise, as one bool."""
    value, reference = np.asarray(value, float), np.asarray(reference, float)
    return bool(np.all(np.abs(value - reference) <= rel * np.abs(reference) + floor))
