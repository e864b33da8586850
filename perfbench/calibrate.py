"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared host the same hermgeo command can run 1.5-2x slower for seconds
to minutes while other tenants load the machine.  The benchmark times this
kernel just before and just after every command and scales the command's
wall time by ``REFERENCE_S / kernel seconds``, so its times read as seconds
on a machine as fast as the reference one, and a slow episode of the host
cancels out.

The kernel mixes the three kinds of work hermgeo's time goes to, in about
equal shares: a plain interpreter loop, a recursive walk over a tree of
small objects (like ``expressions.evaluate``), and numpy/LAPACK calls on
small arrays (like ``curvature`` and ``axioms``).  It never calls hermgeo,
so a change to hermgeo cannot change the kernel's work.
"""

import random
import statistics
import time

import numpy as np

# Typical kernel seconds between two commands on the machine the benchmark
# was tuned on (2-core shared x86-64 VM, Python 3.11, numpy 2.4, one
# OpenBLAS thread).  Only a scale: the gate compares normalised times.
REFERENCE_S = 0.0125


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _build(rng, depth):
    if depth == 0 or rng.random() < 0.08:
        return _Leaf(rng.random() if rng.random() < 0.5 else rng.choice("xyz"))
    return _Node(rng.choice("+-*"), _build(rng, depth - 1), _build(rng, depth - 1))


def _walk(e, env):
    if isinstance(e, _Leaf):
        v = e.value
        return env[v] if isinstance(v, str) else v
    left, right = _walk(e.left, env), _walk(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "*":
        return (left * right) % 7.0
    return left - right


class Kernel:
    """Build once (in set-up), then ``seconds()`` times the kernel."""

    def __init__(self):
        rng = random.Random(0)
        self._trees = [_build(rng, 12) for _ in range(6)]
        self._matrix = np.random.default_rng(0).standard_normal((40, 36))
        self._pass()            # the first pass pays one-off LAPACK set-up

    def seconds(self, passes=1):
        """Median seconds of ``passes`` kernel passes, about 10 ms each."""
        return statistics.median(self._pass() for _ in range(passes))

    def _pass(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(30000):
            acc += (i * 0.5) % 7.0
        env = {"x": 0.3, "y": 0.7, "z": 1.1}
        for tree in self._trees:
            acc += _walk(tree, env)
        a = self._matrix
        for _ in range(30):
            acc += np.linalg.svd(a, compute_uv=False)[0]
            acc += np.einsum("ab,cd->abcd", a[:6, :6], a[6:12, :6]).sum()
        return time.perf_counter() - start

    @staticmethod
    def scale(before, after):
        """Factor from wall seconds to reference seconds for work that ran
        between a kernel timing of ``before`` and one of ``after`` seconds."""
        return REFERENCE_S / (0.5 * (before + after))
