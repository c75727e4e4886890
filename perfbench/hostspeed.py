"""Host-speed correction for wall times measured on a shared machine.

On a shared 2-core host the same pure-Python pass can take anywhere from
1.5 s to 3.1 s within one minute, with CPU time equal to wall time and
no steal time: the host itself runs faster or slower.  `HostSpeed` times
a fixed pure-Python reference computation (stack arithmetic like the
tape interpreter) every INTERVAL_S seconds of wall time, from a SIGALRM
handler, so that samples also fall inside long ops.  An op's time, net of the samples
taken inside it, is rescaled by REFERENCE_S / (mean reference time over
the op), which reads it at the host speed where the reference takes
REFERENCE_S.  The reference imports nothing beyond the standard library
and never calls akkt, so it can sample a cold `import akkt` and a
change to the package cannot move it.
"""
import gc
import math
import signal
import statistics
import time

REFERENCE_S = 0.006     # reference duration the times are rescaled to
INTERVAL_S = 0.1        # wall time between two reference samples
_REPS = 100
_XS = [0.01 * i for i in range(50)]


def reference() -> float:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    acc = 0.0
    for r in range(_REPS):
        vs = [0.0] * 8
        gs = [[0.0] * 5 for _ in range(8)]
        sp = -1
        for x in _XS:
            sp += 1
            vs[sp] = x * 1.000001 + r
            g = gs[sp]
            for j in range(5):
                g[j] = x * j
            if sp >= 2:
                b, gb = vs[sp], gs[sp]
                sp -= 1
                a, ga = vs[sp], gs[sp]
                vs[sp] = a * b + math.sin(a)
                for j in range(5):
                    ga[j] = ga[j] * b + a * gb[j]
        acc += vs[0]
    return acc


class HostSpeed:
    """Use as a context manager around the timed passes; see the module
    docstring.  Only the main thread can receive the signal."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []            # (end time, duration), in order
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:               # a signal that arrives mid-sample is dropped
            return
        self._busy = True
        # a cyclic collection of the interrupted program's heap must not
        # land inside the reference and slow it down
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """(fn(), net seconds, host-speed corrected seconds).  Net seconds
        leave out the samples taken while fn ran."""
        before = self.samples[-1][1]
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        # a handler that ran inside fn ended before t1 was read
        inside = [d for end, d in self.samples if t0 < end <= t1]
        net = (t1 - t0) - sum(inside)
        ref = statistics.fmean([before, *inside])
        return out, net, net * REFERENCE_S / ref
