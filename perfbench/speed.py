"""Machine-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed changes by up to
~1.5x from one second to the next (another tenant on the same core), in
stretches long enough to move the median of a 30 s run by 15-20%.  Process
CPU time moves the same way, so it does not help.  Instead an interval timer
interrupts the workload every ``INTERVAL_S`` and times a fixed pure-Python
loop in the signal handler, on the same thread and so in the same machine
state.  An operation's time, less the probe time inside it, is scaled by
``REFERENCE_S`` over the mean probe time around it.  Times are then in
"reference seconds": what the operation would take on a machine where the
loop takes ``REFERENCE_S``.

On a shared 2-vCPU virtual machine this cut the spread (IQR / median over five seeds) of
the median latency from 0.19 to 0.03 on catalog_default and from 0.15 to
0.03 on single_point_dump.  It works because their time, like the loop's, is
spent in the interpreter; numpy-bound work (twisted_n7) speeds up less than
the loop when the core frees up, and scaling over-corrects it.

Standard library only, so it can run while weylgeom and numpy import.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_S = 1.0e-4
_SPIN_ROUNDS = 200
# Probes are averaged over the operation plus this margin on each side, so a
# 5 ms request still sees about five of them.
MARGIN_S = 0.05


def _spin() -> float:
    acc = 0.0
    table = {}
    for i in range(_SPIN_ROUNDS):
        x = i * 0.5
        acc += x * x - x / 3.0
        table[i & 15] = acc
        acc += len(str(i))
    return acc


class SpeedProbe:
    """Times ``_spin`` every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _spin()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of an operation that ran from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        near = self.durations[lo:hi]
        if not near:
            raise RuntimeError("no speed probe ran near the operation; is the interval timer blocked?")
        inside = sum(
            d for s, d in zip(self.starts[lo:hi], near) if start <= s <= end
        )
        # Drop probes that the scheduler interrupted, which would read as a
        # slow machine.
        typical = statistics.median(near)
        speed = statistics.mean(d for d in near if d <= 2.0 * typical)
        return (end - start - inside) * REFERENCE_S / speed
