"""The reference kernel and the normalisation of CPU time.

The machine this benchmark was built on runs the same fixed work between
0.6x and 1.5x speed from one second to the next, and its two vCPUs swing
independently.  Raw seconds therefore cannot repeat within a tenth.  A
sampler thread in the pinned worker process runs a short, frozen,
pure-Python kernel at a fixed period and records the thread CPU time each
run took.  CPU time is then rescaled to seconds at the reference speed,
the speed at which the kernel takes NOMINAL_S:

- a round: Sampler.normalise scales each slice of main-thread CPU time
  between two kernel runs by NOMINAL_S / (duration of the run ending it);
- set-up, too short for the sampler: speed_factor scales it by
  NOMINAL_S / (mean duration of kernel runs made right after it).

The kernel and NOMINAL_S are part of the benchmark's definition: changing
either one changes every normalised figure, so it is a benchmark change,
never part of a change that claims a gain.
"""

from __future__ import annotations

import threading
import time

# Thread CPU time of one kernel() call at the reference speed, in seconds:
# the median on the 2-vCPU machine the benchmark was calibrated on.
NOMINAL_S = 0.0008

# Wall-clock gap between two kernel runs of the sampler thread.
PERIOD_S = 0.02

_ROWS = (0x5A, 0x33, 0x0F, 0x71, 0x2C, 0x66, 0x1B)
_REPS = 600


def _weight(rows: tuple[int, ...], m: int) -> int:
    c = 0
    for r in rows:
        c += (r & m).bit_count()
    return c


def kernel() -> int:
    """Fixed pure-Python work: bit operations, calls, tuple keys and dict
    traffic, the mix wpnlab's graph code runs.  Frozen: do not edit."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(_REPS):
        m = (i * 2654435761) & 0x7F
        c = _weight(_ROWS, m)
        key = (m, c & 3)
        table[key] = table.get(key, 0) + 1
        acc ^= m << (c & 7)
    return acc + len(sorted(table.items()))


def timed_kernel() -> float:
    """Thread CPU seconds of one kernel run."""
    t0 = time.thread_time_ns()
    kernel()
    return (time.thread_time_ns() - t0) / 1e9


def speed_factor(durations: list[float]) -> float:
    """NOMINAL_S over the mean measured duration: below 1 when the machine
    ran slower than the reference, so multiplying CPU time by it gives
    normalised seconds."""
    if not durations:
        raise ValueError("no kernel samples to normalise with")
    return NOMINAL_S * len(durations) / sum(durations)


class Sampler:
    """Runs the kernel every PERIOD_S on a daemon thread.  Each run is kept
    with the CPU time the creating (main) thread had used when it ended."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float]] = []   # (main CPU ns, duration s)
        self._clock = time.pthread_getcpuclockid(threading.get_ident())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="kernel-sampler",
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            d = timed_kernel()
            self.samples.append((time.clock_gettime_ns(self._clock), d))

    def wait_past(self, cpu_ns: int, timeout_s: float = 1.0) -> None:
        """Wait until a kernel run ends after the main thread reached cpu_ns."""
        deadline = time.monotonic() + timeout_s
        while (not self.samples or self.samples[-1][0] < cpu_ns) \
                and time.monotonic() < deadline:
            time.sleep(PERIOD_S / 4)

    def normalise(self, c0: int, c1: int) -> float:
        """Normalised seconds of the main thread's CPU time from c0 to c1 ns.

        Each slice of main-thread CPU time between two kernel runs is scaled
        by the speed the run that ends it measured.  Work done in a slice is
        proportional to its CPU time times the speed, so this sums work where
        rescaling the total by the mean duration would weight slow moments
        wrongly when the speed swings within a round.
        """
        samples = list(self.samples)
        if not samples:
            raise ValueError("no kernel samples to normalise with")
        total = 0.0
        prev = c0
        last = samples[0][1]
        for m, d in samples:
            if m <= c0:
                last = d
                continue
            hi = min(m, c1)
            total += (hi - prev) / 1e9 * NOMINAL_S / d
            prev, last = hi, d
            if m >= c1:
                break
        return total + (c1 - prev) / 1e9 * NOMINAL_S / last
