"""Machine-speed calibration.

On shared virtual machines the effective CPU speed drifts: on a 2-vCPU VM
the same pure-Python loop took between 115 and 390 ms within one minute, and
the medians of successive 25-second windows differed by 16% (interquartile
range over median). Benchmark timings divide each operation's time by the
host's current slowdown against a reference host, measured with fixed
kernels that never call pmrc, so a change to the program cannot move them.

The kernels mix the kinds of work pmrc's operations do: interpreter loops,
many small numpy calls, int64 modular matrix products and large-array
streaming. The slowdown is the mean over kernels of measured time / that
kernel's time on the reference host.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_Q = 257

# Median kernel seconds over 40 s on the reference host: a 2-vCPU KVM guest
# with Python 3.11 and numpy 2.4.
REFERENCE_S = {
    "python": 0.0065,
    "small_numpy": 0.0055,
    "matmul": 0.0156,
    "stream": 0.0175,
}


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat_a = rng.integers(0, _Q, (64, 64))
        self._mat_b = rng.integers(0, _Q, (64, 2000))
        self._big = rng.integers(0, _Q, 1_000_000)
        self._buf = np.empty_like(self._big)
        self._vec = rng.integers(0, _Q, 14)
        self._sq = rng.integers(0, _Q, (14, 14))
        self.kernels = {
            "python": self._python,
            "small_numpy": self._small_numpy,
            "matmul": self._matmul,
            "stream": self._stream,
        }

    @staticmethod
    def _python():
        acc = 0
        for j in range(100_000):
            acc += j * j
        return acc

    def _small_numpy(self):
        m = self._sq.copy()
        for _ in range(1000):
            m -= np.outer(self._vec, m[0])
            m %= _Q
        return m

    def _matmul(self):
        return [(self._mat_a @ self._mat_b) % _Q for _ in range(2)]

    def _stream(self):
        acc = 0
        for _ in range(3):
            np.multiply(self._big, 3, out=self._buf)
            self._buf += 7
            self._buf %= _Q
            acc += int(self._buf.sum())
        return acc

    def times(self) -> dict[str, float]:
        out = {}
        for name, kernel in self.kernels.items():
            t0 = perf_counter()
            kernel()
            out[name] = perf_counter() - t0
        return out

    def slowdown(self) -> float:
        """Current host slowdown against the reference host (1.0 = same)."""
        t = self.times()
        return sum(t[k] / REFERENCE_S[k] for k in t) / len(t)
