"""Machine speed, sampled while the benchmark runs.

The shared host the benchmark runs on changes speed by up to 1.6x, in phases
from seconds to minutes; a phase can outlast a whole run, so no statistic
over one run's units removes it.  A `Speedometer` times a fixed task that
does not touch the program, in the same process and on the same CPU as the
program, and a measured time is scaled by REFERENCE_S / (the task's median
time while it ran): a slower program shows, a slower machine does not.
"""
import signal
import statistics
import time
from contextlib import contextmanager

# Seconds the task takes at the speed timings are scaled to: close to its
# median on an idle vCPU of the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.0003
SAMPLE_EVERY_S = 0.05  # the task, run twice, then costs about 1% of a sampled run
CHECKPOINT_REPEATS = 31


class Speedometer:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._weights = rng.standard_normal((64, 64))
        self._rows = rng.standard_normal((16, 64))

    def task_s(self):
        """Time one run of the task: an interpreter loop and small numpy
        operations, the mix a meta-evaluation is made of."""
        start = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i * i % 7
        for _ in range(10):
            total += float(self._np.tanh(self._rows @ self._weights).sum())
        return time.perf_counter() - start

    def warm_task_s(self):
        """Time the task after one untimed run of it, so that the time does
        not depend on what the program left in the caches."""
        self.task_s()
        return self.task_s()

    def checkpoint(self):
        """The task's median time now, for what cannot be sampled while it runs."""
        return statistics.median(self.warm_task_s() for _ in range(CHECKPOINT_REPEATS))

    @contextmanager
    def sampling(self):
        """Time the task every SAMPLE_EVERY_S seconds inside the block.

        Yields a list that holds the samples, at least one, when the block
        ends.  A SIGALRM handler runs the task between two bytecodes of the
        program, so it sees the speed of the CPU the program runs on.
        """
        samples = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(self.warm_task_s()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            samples.append(self.warm_task_s())


def scale(seconds, task_s):
    """`seconds` at the reference speed, given the task's time meanwhile."""
    return seconds * REFERENCE_S / task_s
