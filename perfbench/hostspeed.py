"""Host-speed reference: a fixed kernel timed next to, and during, commands.

The speed of the small shared host the benchmark was built on drifts by up to
1.5x between minutes, with CPU time equal to wall time, so two runs of the
same code can differ by a quarter in every wall-clock figure.  The drift
scales the program and a fixed piece of comparable work alike, so the
benchmark times such a kernel around and inside each command and reports the
command's wall time in reference seconds: wall time times the mean of
REF_KERNEL_S / (kernel time) over the kernel samples that bracket it or fall
inside it.  A reference second is a wall second on a host where the kernel
takes REF_KERNEL_S, close to the wall second of this host at its usual speed.

The kernel mixes the two kinds of work entwit does: small-matrix numpy calls
driven from Python (building a 9x9 state, partial transpose, `eigvalsh`) and
one vectorised pass over product states, as the separable sampler makes.  It
is the benchmark's own code and imports nothing from entwit, so a change to
entwit moves the commands and never the reference.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

import reference as R

# Seconds one kernel run takes on the reference host; a fixed scale, chosen
# near the kernel's usual time on the 2-vCPU host described in README.md.
REF_KERNEL_S = 0.0011
_POINTS = 12
_PRODUCTS = 1024
# The kernel runs once per PERIOD_S wall seconds of commands: inside a long
# command from a timer, and after every PERIOD_S of short ones.
PERIOD_S = 0.025


class HostSpeed:
    """Times the reference kernel; `inside` samples it during a command."""

    def __init__(self):
        rng = np.random.default_rng(20071008)
        self.points = [tuple(p) for p in rng.uniform(-0.1, 0.3, (_POINTS, 3))]
        z = rng.standard_normal((_PRODUCTS, 2, R.D, 2))
        left = z[:, 0, :, 0] + 1j * z[:, 0, :, 1]
        right = z[:, 1, :, 0] + 1j * z[:, 1, :, 1]
        self.vecs = np.einsum("ni,nj->nij", left, right).reshape(_PRODUCTS, -1)
        self.operator = R.line_witness(0.3, R.lambda_min(0.3))
        self._kernel()  # the first run pays for lazy set-up inside numpy
        self.inside_samples: list[float] = []
        self.inside_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self) -> float:
        total = 0.0
        for alpha, beta, gamma in self.points:
            total += R.min_pt_eig(R.family_state(alpha, beta, gamma))
        values = np.einsum("na,ab,nb->n", self.vecs.conj(), self.operator,
                           self.vecs).real
        return total + float(values.min())

    def sample(self) -> float:
        """Wall seconds of one kernel run."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        elapsed = self.sample()
        self.inside_samples.append(elapsed)
        self.inside_s += elapsed

    @contextlib.contextmanager
    def inside(self):
        """Run the kernel every PERIOD_S wall seconds while the body runs,
        from a SIGALRM handler.  Python runs the handler between bytecodes of
        the main thread, so a long numpy call delays a sample but is never
        interrupted."""
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    @staticmethod
    def speed(kernel_s: float) -> float:
        """Reference seconds per wall second at a measured kernel time."""
        return REF_KERNEL_S / kernel_s

