"""Host-speed probes: fixed work timed all through a sample.

The shared virtual machine the benchmark runs on executes the same code up
to twice as slowly for seconds to minutes at a time, CPU time as much as wall
time, so a run that falls in a slow phase reads slow however many samples it
holds.  The probes measure that speed while the sample runs: every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler times one probe of fixed
work.  Probes interleave finely with the program, so both see the same
phases, and :func:`at_reference_speed` turns an elapsed time into the time it
would have taken at the reference host speed.

There are two kinds of probe, which slow phases hit differently: pure Python
(string formatting and integer arithmetic) and small numpy calls (FFT and dot
product).  The numpy probe runs only once numpy is fully imported, so set-up
is probed with the Python probe alone.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
PYTHON_LOOPS = 2000
NUMPY_LOOPS = 40
# A typical duration of each probe on the reference host, a 2-vCPU Xeon
# virtual machine running Python 3.11 and numpy 2.4.  They set only the scale
# of the normalised times.
REF_S = {"python": 1.5e-3, "numpy": 0.9e-3}


def _python_work() -> None:
    s = 0
    for i in range(PYTHON_LOOPS):
        s += len("%.6e" % (i * 1.1)) + (i * i) % 7


def _numpy_work(np) -> None:
    x = np.arange(64.0)
    for _ in range(NUMPY_LOOPS):
        np.fft.ifft(np.fft.fft(x)).real.sum()
        np.dot(x, x)


def probe_time(probes: dict[str, list[float]]) -> float:
    """Seconds the probes themselves took."""
    return sum(sum(durations) for durations in probes.values())


def at_reference_speed(elapsed: float, probes: dict[str, list[float]]) -> float:
    """``elapsed`` less the probes' own time, scaled by the host speed.

    ``probes`` maps a probe kind to the durations of the probes of that kind
    that ran inside ``elapsed``.  Probes fire at even intervals of wall time,
    so the mean of ``REF_S[kind] / d`` is the host speed for that kind of
    work averaged over the window; the speed used is the geometric mean over
    the kinds.
    """
    speed = 1.0
    for kind, durations in probes.items():
        speed *= sum(REF_S[kind] / d for d in durations) / len(durations)
    return (elapsed - probe_time(probes)) * speed ** (1.0 / len(probes))


class Probe:
    """Times a probe every ``INTERVAL_S`` from ``start`` to ``stop``, taking
    the window's kinds in turn."""

    def __init__(self):
        self._probes: dict[str, list[float]] = {}
        self._np = None
        self._ticks = 0
        self._previous = None

    def _probe(self, kind: str) -> None:
        t0 = time.perf_counter()
        if kind == "python":
            _python_work()
        else:
            _numpy_work(self._np)
        self._probes[kind].append(time.perf_counter() - t0)

    def _handler(self, signum, frame):
        self._ticks += 1
        kinds = list(self._probes)
        self._probe(kinds[self._ticks % len(kinds)])

    def start(self) -> None:
        """Open a Python-only window and arm the timer."""
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.open_window()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def open_window(self, np=None) -> None:
        """Forget earlier probes and run one of each kind now, so that every
        window holds each kind however short it is.  Passing the imported
        numpy module adds the numpy probe."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._np = np
            self._probes = {"python": []} if np is None else {"python": [], "numpy": []}
            for kind in self._probes:
                self._probe(kind)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def close_window(self) -> dict[str, list[float]]:
        """Durations of the probes since ``open_window``, by kind."""
        return {kind: list(d) for kind, d in self._probes.items()}
