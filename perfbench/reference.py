"""A fixed reference kernel that measures how fast the host is right now.

The benchmark times the reference kernel right before and right after every
measured unit, and reports unit times as multiples of it (unit ``ref``).  On
a shared host whose speed drifts by tens of percent over seconds to minutes,
the drift slows the unit and the kernel alike, so the ratio keeps only what
the program itself changed.

The kernel uses no code of the package.  It does the kinds of work a unit
does, on arrays of the sizes a unit uses at n=16 (a 64^3 fine grid, a 16^3
coarse grid): an elementwise logistic, axis-by-axis gather-and-weight
upsampling, a scatter-add, an ``argwhere`` over a boolean grid,
nearest-point searches in a Python loop, and a sha256 of the grid's bytes.
Its inputs are fixed, so its work is the same in every run.  It took 17-27 ms
on the machine README.md describes.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

FINE = 64
COARSE = 16
QUERIES = 40
CANDIDATES = 2000


class ReferenceKernel:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(12345))
        self.fine = rng.standard_normal((FINE,) * 3)
        self.coarse = rng.standard_normal((COARSE,) * 3)
        self.index = np.arange(FINE) * COARSE // FINE
        self.weight = rng.random(FINE)
        self.points = rng.random((QUERIES, 3)) * FINE
        self()  # warm-up

    def __call__(self) -> float:
        s = 1.0 / (1.0 + np.exp(-self.fine))
        i, w = self.index, self.weight
        up = self.coarse[i] * w[:, None, None]
        up = up[:, i] * w[None, :, None]
        up = up[:, :, i] * w[None, None, :]
        grad = s * (1.0 - s) * up
        back = np.zeros((COARSE, FINE, FINE))
        np.add.at(back, i, grad)
        occupied = np.argwhere(s > 0.7)[:CANDIDATES]
        acc = 0.0
        for p in self.points:
            acc += float(np.argmin(np.sum((occupied - p) ** 2, axis=1)))
        hashlib.sha256(s.tobytes()).digest()
        return acc + float(back[0, 0, 0])

    def times(self, calls: int) -> list[float]:
        """Wall time of each of ``calls`` back-to-back calls."""
        out = []
        for _ in range(calls):
            t0 = time.perf_counter()
            self()
            out.append(time.perf_counter() - t0)
        return out


def unit_in_refs(unit_s: float, before: list[float], after: list[float]) -> float:
    """A unit's time as a multiple of the reference kernel's median time
    over the calls made right before and right after it."""
    return unit_s / statistics.median(before + after)
