"""Calibrated timing (see README, "Noise").

The machine this benchmark was tuned on changes speed in phases of 5-25 s
(up to 2x; CPU time tracks wall time, so it is not scheduling), and the
phases slow interpreted code and dense LAPACK by different amounts. Each
timed job is bracketed by fixed calibration kernels and reported as

    calibrated seconds = seconds / mean over kernels of (kernel seconds / REF_S)

i.e. the time the job takes in a phase where each kernel takes its REF_S
(about the machine's fast phase). A workload names the kernels that do the
same kind of work it does (workloads.KERNELS).
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

_rng = random.Random(0)
_MATRIX = [[_rng.random() for _ in range(60)] for _ in range(60)]
_VECTOR = [_rng.random() for _ in range(60)]
_FRACTIONS = [Fraction(_rng.randint(1, 999), _rng.randint(1, 999)) for _ in range(60)]
_SMALL = np.random.default_rng(0).random((120, 40))
_SMALL_RHS = np.random.default_rng(1).random(120)
_BIG = np.random.default_rng(2).random((276, 140))
_BIG_RHS = np.random.default_rng(3).random(276)


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def at(self, x):
        return self.a * x + self.b


_AFFINE = [_Affine(_rng.random(), _rng.random()) for _ in range(50)]


def loops():
    """Interpreted float loops and dict updates."""
    acc = 0.0
    for _ in range(2):
        for row in _MATRIX:
            s = 0.0
            for k, w in enumerate(_VECTOR):
                s += w * row[k]
            acc += s
    table = {}
    for k in range(2000):
        table[k] = (k, float(k))
    return acc


def small_lstsq():
    """numpy calls on small arrays, where call overhead is most of the cost."""
    for _ in range(2):
        np.linalg.lstsq(_SMALL, _SMALL_RHS, rcond=None)


def objects():
    """Fraction arithmetic and method calls."""
    acc = Fraction(0)
    for x in _FRACTIONS[:20]:
        for y in _FRACTIONS[:8]:
            acc += x * y
    s = 0.0
    for _ in range(6):
        for f in _AFFINE:
            s += f.at(s) * 1e-9
    return acc, s


def big_lstsq():
    """One dense least-squares solve of the size the dense NNLS makes."""
    np.linalg.lstsq(_BIG, _BIG_RHS, rcond=None)


# seconds each kernel takes in the machine's fast phase
REF_S = {loops: 0.0006, small_lstsq: 0.0007, objects: 0.0006, big_lstsq: 0.0037}


def slowdown(kernels) -> float:
    """How much slower than REF_S the kernels run now: the mean ratio, each
    kernel timed three times and the median taken, so that the first run
    after a job, with cold caches, does not decide it."""
    ratios = []
    for kernel in kernels:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        ratios.append(statistics.median(times) / REF_S[kernel])
    return statistics.fmean(ratios)


def timed(fn, kernels):
    """(result, seconds, calibrated seconds) of fn(), calibrating before and after."""
    before = slowdown(kernels)
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, seconds / ((before + slowdown(kernels)) / 2)
