"""The speed this process's CPU gives it, sampled while the benchmark runs.

The benchmark's host shares its cores: the same pure-Python loop takes up to
1.6 times as long for seconds at a time, on each core independently, in
CPU time as in wall time. A timer signal therefore interrupts the running
request every INTERVAL seconds and times a fixed loop, on the same core at
the same moment. A span of wall time T in which the loop took p_1 .. p_k
seconds holds the work of T * mean(REF / p_i) seconds at the reference
speed, where the loop takes REF seconds; that is the time a request is
charged.
"""

import signal
import time

INTERVAL = 0.01
# Sets the unit only: about the loop's time, run from the timer signal, in
# the faster state of the 2-vCPU Xeon VM the benchmark was tuned on, so that
# scaled times read close to wall seconds in that state there.
REF = 1.2e-4


def _loop():
    d = {}
    for k in range(1280):
        d[k & 31] = d.get(k & 31, 0) + k
    return d


class SpeedProbe:
    """Samples the loop's time on SIGALRM while installed (a context manager).

    Only for the main thread of a process that uses no other alarm timer.
    """

    def __init__(self):
        self.samples = []
        self._saved = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def mark(self):
        return len(self.samples)

    def scaled(self, elapsed, first, end):
        """elapsed wall seconds, in which samples first..end-1 were taken, as
        seconds at the reference speed."""
        window = self.samples[first:end]
        if not window and end:
            # shorter than one interval: the speed sampled just before
            window = self.samples[end - 1:end]
        if not window:
            return elapsed
        return elapsed * sum(REF / p for p in window) / len(window)
