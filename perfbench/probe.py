"""A fixed reference computation that gauges how fast the host runs right now.

On a virtual machine shared with other tenants the CPU runs the same code
up to twice as slowly for seconds to minutes at a time, so raw wall times
of one run measure the neighbours as much as phi4lab.  The benchmark runs
this probe between tasks and scales each task's wall time by
``REFERENCE_S`` over the probe times taken on either side of it: a task
that took 10 ms while the probe took twice its reference time is counted
as 5 ms.  The probe imports nothing from phi4lab, so a change to the
library cannot move it, and it mixes the kinds of work the workloads do:
interpreted Python (loops, dicts, tuples, floats), small numpy kernels
(FFT, matrix product, sort), elementwise numpy over an array larger than
a core's L2 cache (exp and powers, as in quadrature and Monte Carlo) and a
pass over an 8 MB array, which a neighbour's use of the shared cache and
memory bus slows.  That array adds 8 MB to every workload's peak RSS.
"""

import time

import numpy as np

# The probe's wall time, in seconds, at the host speed every scaled time is
# expressed in: about its median on a 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4, OpenBLAS with one thread).
REFERENCE_S = 0.005

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.standard_normal((48, 48))
_VECTOR = _RNG.standard_normal(2048)
_KEYS = [f"k{i}" for i in range(64)]
_LARGE = _RNG.standard_normal(1 << 17)
_STREAM = _RNG.standard_normal(1 << 20)


def _python():
    table = {}
    total = 0.0
    for i in range(4000):
        key = _KEYS[i & 63]
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i * i) % 7
    return total + len(tuple(sorted(table.items())))


def _numpy():
    total = 0.0
    for _ in range(8):
        spectrum = np.fft.rfft(_VECTOR)
        product = _MATRIX @ _MATRIX
        ordered = np.sort(_VECTOR)
        total += float(product[0, 0] + spectrum[1].real + ordered[3])
    return total


def _elementwise():
    # the power is numpy's slow general pow, as in phi ** 4 on quadrature grids
    return float(np.sum(np.exp(-0.5 * _LARGE * _LARGE))) + float(np.sum(_LARGE[:1 << 14] ** 4))


def _stream():
    np.multiply(_STREAM, 1.0, out=_STREAM)
    return float(_STREAM.sum())


def run():
    """Run the probe once; its wall time in seconds."""
    start = time.perf_counter()
    _python()
    _numpy()
    _elementwise()
    _stream()
    _python()
    return time.perf_counter() - start


class Gauge:
    """Probe times of one run, taken between the timed pieces of work."""

    def __init__(self, warm=20):
        for _ in range(warm):  # numpy's FFT plans and other first-call costs
            run()
        self.probes = [run()]

    def factor(self):
        """Probe again and return ``REFERENCE_S`` over the mean of this probe
        and the one before it: the scale for wall times measured in between."""
        after = run()
        factor = REFERENCE_S / (0.5 * (self.probes[-1] + after))
        self.probes.append(after)
        return factor
