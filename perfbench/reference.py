"""Drift normalisation against a fixed pure-Python reference loop.

On a small shared VM the interpreter's speed drifts by up to 2x within
seconds, in process CPU time as much as in wall time.  Every timed piece
of work is therefore run between samples of a reference loop that does
not use the package, and its wall time is rescaled as if the reference
loop had taken exactly NOMINAL_S: a reported second is a second on a
machine where the reference loop takes NOMINAL_S.  Set-up stages, which
can run for seconds, are also sampled while they run.  The loop mixes what the package
spends its time on: big-int AND and popcount, small list and tuple
building, dict updates and function calls.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.010

_rng = random.Random(1907_03344)
_MASKS = tuple(_rng.getrandbits(127) for _ in range(64))
_WORDS = tuple(_rng.getrandbits(127) for _ in range(16))
_REPEATS = 80
SHORT_REPEATS = _REPEATS // 10  # a short sample, about a millisecond


def _parities(word: int) -> list[int]:
    return [(word & m).bit_count() & 1 for m in _MASKS]


def reference_loop(repeats: int = _REPEATS) -> int:
    acc = 0
    seen: dict[tuple[int, ...], int] = {}
    for _ in range(repeats):
        for w in _WORDS:
            row = _parities(w)
            key = tuple(row[:6])
            seen[key] = seen.get(key, 0) + sum(row)
            if 2 * sum(row) > len(row):
                acc ^= w
    return acc + len(seen)


def time_reference(repeats: int = _REPEATS) -> float:
    start = perf_counter()
    reference_loop(repeats)
    return perf_counter() - start


def short_scale() -> float:
    """The scale factor given by one short sample."""
    return NOMINAL_S * SHORT_REPEATS / _REPEATS / time_reference(SHORT_REPEATS)


class _Sampler:
    """Samples the speed while one long call runs.

    Every SAMPLE_EVERY_S a SIGALRM handler takes a short sample between two
    bytecodes of the call; the handler's own time is kept apart so it can
    be taken off the call's wall time.
    """

    SAMPLE_EVERY_S = 0.01

    def __init__(self) -> None:
        self.scales: list[float] = []
        self.spent = 0.0

    def _handler(self, _signum, _frame) -> None:
        start = perf_counter()
        self.scales.append(short_scale())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class StageClock:
    """Times the stages of a set-up, which can run for seconds without a
    break, and rescales them to NOMINAL_S.

    Every sample here is a short one: `group` of them between consecutive
    stages, and one every SAMPLE_EVERY_S while a stage runs (see _Sampler).
    Every stage, long or short, is rescaled by the mean scale of the
    samples taken while it ran and of the groups on both of its sides, each
    group counting as one sample: its samples are taken back to back, so
    together they stand for one instant, while the in-call samples spread
    over the whole stage.  This is the mean over time of the speed.  The
    in-call sampling time is taken off the stage's wall time.
    """

    def __init__(self, group: int) -> None:
        reference_loop()  # warm up before the first sample
        self.group = group
        self._last = [short_scale() for _ in range(group)]
        self.sampling_s = 0.0  # in-call sampling time, kept off the stages

    def run(self, fn):
        """Run fn(); return (its result, wall seconds, scale factor)."""
        sampler = _Sampler()
        start = perf_counter()
        with sampler:
            result = fn()
        wall = perf_counter() - start - sampler.spent
        self.sampling_s += sampler.spent
        after = [short_scale() for _ in range(self.group)]
        scale = statistics.fmean(
            [statistics.fmean(self._last), *sampler.scales, statistics.fmean(after)]
        )
        self._last = after
        return result, wall, scale


class Clock:
    """Times a series of short pieces of work between reference samples
    and rescales them to NOMINAL_S.

    Consecutive pieces share the sample between them, so the sequence is
    ref, work, ref, work, ref, ...  A piece is rescaled by the mean of the
    samples on both of its sides.  `refs` keeps every sample, so that a
    caller can also rescale a whole series of pieces by the mean of the
    samples between them.
    """

    def __init__(self) -> None:
        reference_loop()  # warm up before the first sample
        self._last = time_reference()
        self.refs = [self._last]

    def run(self, fn):
        """Run fn(); return (its result, wall seconds, scale factor).

        Multiplying a wall time measured inside fn by the scale factor gives
        the normalised time.
        """
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        after = time_reference()
        scale = NOMINAL_S / statistics.fmean((self._last, after))
        self._last = after
        self.refs.append(after)
        return result, wall, scale
