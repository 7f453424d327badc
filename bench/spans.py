"""Spans kept in memory, and the speed samples that scale them.

A Recorder keeps every ``with rec.span(name)`` block as (name, start, end,
parent).  A layer's self time is its spans' durations minus the parts
covered by child spans; the layer of a span is the first dotted component
of its name.

On a shared machine the speed of one CPU can change by up to a factor of
two within seconds as neighbours come and go.  A SpeedSampler therefore runs a fixed calibration from an interval timer
several times a second, in the benchmark's own thread, and ``scaled``
converts an interval into the seconds it would have taken at a reference
speed: the interval, less the calibration time inside it, times the mean
ratio of the reference calibration time to the times sampled during it.
The calibration's speed tracks the library's interpreter-bound and numpy
work, so scaled times repeat where raw ones do not.
"""

from __future__ import annotations

import contextlib
import json
import signal
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# calibration time at the reference speed, in seconds
CALIBRATION_REF_S = 3.4e-3
SAMPLE_INTERVAL_S = 0.15


class _Calibration:
    """A fixed mix of the kinds of work the library does.

    An interpreter loop over floats, scattered reads and writes of Python
    lists, many small numpy calls, and a few large vector operations.  Each
    part slows differently when a neighbour competes for the core, so
    together they track the engines, the solver and the samplers better
    than any one of them.  It keeps no object it creates: a Python object
    left alive between samples would pin the allocator arena it landed in,
    and the program's peak memory would then depend on when samples fell.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = list(range(100_000))
        self.picks = rng.integers(0, 100_000, size=4000).tolist()
        self.scratch = [0] * 4000
        self.slots = array("d", [0.0] * 64)
        self.small = np.arange(8.0)
        self.large = np.arange(100_000.0)
        self.buffer = np.empty_like(self.large)

    def __call__(self):
        acc = 0.0
        slots = self.slots
        for i in range(8000):
            j = i & 63
            acc += slots[j] * 0.5 + 1.0
            slots[j] = acc if acc < 1e6 else 0.0
        table, scratch = self.table, self.scratch
        for k, i in enumerate(self.picks):
            scratch[k] = table[i] & 255
        for _ in range(150):
            acc += float((np.asarray(self.small) * 0.5 + 1.0)[3])
        buf = self.buffer
        np.copyto(buf, self.large)
        for _ in range(4):
            np.multiply(buf, 1.0001, out=buf)
            np.add(buf, 1.0, out=buf)
            np.sqrt(buf, out=buf)


class SpeedSampler:
    """Calibration samples taken from a SIGALRM interval timer."""

    capacity = 1 << 14

    def __init__(self):
        # end time and duration of each sample, in preallocated arrays
        self.ends = np.zeros(self.capacity)
        self.loop_s = np.zeros(self.capacity)
        self.count = 0
        self._calibrate = _Calibration()

    def _sample(self, signum, frame):
        if self.count == self.capacity:
            raise RuntimeError("speed sample buffer full")
        start = perf_counter()
        self._calibrate()
        end = perf_counter()
        self.ends[self.count] = end
        self.loop_s[self.count] = end - start
        self.count += 1

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed."""
        ends = self.ends[:self.count]
        lo = int(np.searchsorted(ends, start, side="left"))
        hi = int(np.searchsorted(ends, end, side="right"))
        if hi > lo:
            inside = self.loop_s[lo:hi]
            busy = float(inside.sum())
        else:
            # shorter than the sampling interval: the nearest samples
            inside = self.loop_s[max(lo - 1, 0):min(lo + 1, self.count)]
            busy = 0.0
        ratio = float(np.mean(CALIBRATION_REF_S / inside))
        return (end - start - busy) * ratio


class _Span:
    __slots__ = ("rec", "name", "index", "start", "elapsed")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.index = len(rec.spans)
        rec.spans.append([self.name, 0.0, 0.0, parent])
        rec._stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        rec = self.rec
        self.elapsed = end - self.start
        rec.spans[self.index][1] = self.start
        rec.spans[self.index][2] = end
        rec._stack.pop()
        return False


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def seconds(self, name: str, scale=None) -> float:
        """Total time in spans with this name, scaled when ``scale`` is given."""
        if scale is None:
            return sum(e - s for n, s, e, _ in self.spans if n == name)
        return sum(scale(s, e) for n, s, e, _ in self.spans if n == name)

    def durations(self, name: str) -> list:
        """Seconds of every span with this name."""
        return [e - s for n, s, e, _ in self.spans if n == name]

    def self_times(self) -> dict:
        """Seconds per layer not covered by that span's child spans."""
        own = [e - s for _, s, e, _ in self.spans]
        for _, s, e, parent in self.spans:
            if parent >= 0:
                own[parent] -= e - s
        out = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, own):
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans], fh)
            fh.write("\n")


class NullRecorder:
    """Records nothing: the untraced rounds of the traced run."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def tail_name(n_samples: int) -> str | None:
    """Highest of p90/p75 with at least ten samples beyond it; none below 40."""
    if n_samples >= 100:
        return "p90"
    if n_samples >= 40:
        return "p75"
    return None
