"""Fixed reference kernel timed between operations.

The machine's speed drifts by tens of percent within minutes, and raw
operation times follow it.  The kernel does a fixed amount of the kinds of
work the package does: numpy calls on arrays of a few elements driven by an
interpreter loop, one draw from each of 400 Philox streams per round (as the
Monte Carlo engine draws per trajectory), and dense complex SVDs,
exponentials and solves at 144, the maser's superoperator dimension.
Dividing an operation's time by the kernel time measured around it cancels
most of that drift.

Drift does not slow every kind of work alike, so the mix follows the
workload.  ``sweep`` and ``trajectories`` mix interpreter-bound model
building or sampling with LAPACK and get small arrays, streams and an SVD;
``two_time`` spends its time in 144x144 exponentials and resolvent solves
and gets those.  With the first mix, ten ``two_time`` runs spread their
ratios 6%, against 2-4% for the other workloads; in a calibration on
``two_time`` operations, exponentials and solves tracked the drift best.
One mix of all five parts spread them 2.4% (``sweep``), 4.2%
(``two_time``) and 7.2% (``trajectories``) over ten runs each: it
over-corrected ``two_time`` and under-corrected ``trajectories``.
The kernel never calls into the package, so a change to the package cannot
change it.
"""

import time

import numpy as np
import scipy.linalg

STREAMS = 400
SVD_SIZE = 144  # SVDs, exponentials and solves
# rounds of (small-array einsum, draws from all streams, SVD, exponential, solve)
MIXES = {
    "sweep": (300, 12, 1, 0, 0),
    "two_time": (200, 0, 0, 1, 8),
    "trajectories": (300, 12, 1, 0, 0),
}


class ReferenceKernel:
    """Inputs made once from a fixed seed; ``time_once`` returns seconds."""

    def __init__(self, workload):
        self.small_rounds, self.stream_rounds, self.svds, self.expms, self.solves = MIXES[
            workload
        ]
        rng = np.random.default_rng(12345)
        self.ops = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        self.rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        self.mat = rng.normal(size=(SVD_SIZE, SVD_SIZE)) + 1j * rng.normal(
            size=(SVD_SIZE, SVD_SIZE)
        )
        # decaying, like a generator, so its exponential stays bounded
        self.gen = (self.mat - 30.0 * np.eye(SVD_SIZE)) / 10.0
        self.rhs = rng.normal(size=SVD_SIZE) + 0j
        self.streams = [
            np.random.Generator(np.random.Philox(np.random.SeedSequence(12345, spawn_key=(i,))))
            for i in range(STREAMS)
        ]

    def run(self):
        rho = self.rho
        for _ in range(self.small_rounds):
            out = np.einsum("kab,bc,kdc->ad", self.ops, rho, self.ops.conj())
            rho = out / np.trace(out)
        u = 0.0
        for _ in range(self.stream_rounds):
            u += np.array([s.random() for s in self.streams]).sum()
        s = 0.0
        for _ in range(self.svds):
            s += np.linalg.svd(self.mat, compute_uv=True)[1][0]
        for _ in range(self.expms):
            s += scipy.linalg.expm(0.1 * self.gen)[0, 0].real
        for _ in range(self.solves):
            s += np.linalg.solve(self.gen + 1j * np.eye(SVD_SIZE), self.rhs)[0].real
        return rho, u, s

    def time_once(self):
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
