"""Op timing, output checks and failure accounting for one pass of a workload.

`Meter.op(run, check)` times `run()` alone, then calls `check(output)`
outside the clock.  A check returns None when the output is right and a
reason otherwise; an op that raises is failed too.
`KnownDefect` marks a failure the ROADMAP already lists: it still counts as
failed, but does not make the run incorrect.  With a recorder attached every
op and check is also a `harness` span, the parent of the layer spans inside.

On the machine of the baseline (2 vCPUs shared with other tenants) the
speed of pure Python changes by up to 2x from one second to the next, by
about the same factor whatever code runs.  A timed meter therefore runs
`calibration_kernel`, a fixed piece of pure-Python work, every CAL_EVERY_S
seconds between ops; the runner divides each op's time by the duration of
the kernel runs around it over CAL_REF_S, which states it at the reference
speed where the kernel takes CAL_REF_S.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.0003
CAL_EVERY_S = 0.02


def calibration_kernel() -> float:
    """Run a fixed mix of int, list, dict, sort and Fraction work; return its seconds."""
    t0 = perf_counter()
    pairs, buckets, x = [], {}, 12345
    for i in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        pairs.append((x % 97, i))
        buckets[x % 31] = buckets.get(x % 31, 0) + 1
    pairs.sort()
    total = Fraction(0)
    for k in range(1, 30):
        total += Fraction(1, k)
    return perf_counter() - t0


class KnownDefect(str):
    """Reason for a failure that is a documented defect of the program."""


class Meter:
    def __init__(self, recorder=None, *, trace_extras: bool = False, calibrate: bool = False):
        self.rec = recorder
        self.calibrate = calibrate
        self.cal: list[float] = []  # calibration_kernel durations, in run order
        self._last_cal = perf_counter()
        # trace_extras: also make the calls that only the per-layer metrics
        # need (seminormal forms, direct library calls behind the CLI).
        self.trace_extras = trace_extras
        # (seconds, calibrations so far, passed op?) per op and timed step
        self.timings: list[tuple[float, int, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.reasons: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # exact counts, see `count`/`peak`

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def peak(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.known += isinstance(reason, KnownDefect)
        self.reasons[reason[:120]] += 1

    @contextmanager
    def span(self, name: str, *, new_op: bool = False, tag: str | None = None):
        if self.rec is None:
            yield
            return
        span = self.rec.open("harness", name, new_op=new_op, tag=tag)
        try:
            yield
        finally:
            self.rec.close(span)

    def op(self, run, check, tag: str | None = None):
        """One attempted op; returns its output, or None when it raised."""
        error = None
        with self.span("op", new_op=True, tag=tag):
            t0 = perf_counter()
            try:
                out = run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, exc
            dt = perf_counter() - t0
        self.attempted += 1
        if error is not None:
            verdict = f"raised {type(error).__name__}: {error}"
        else:
            with self.span("check"):
                try:
                    verdict = check(out)
                except Exception as exc:
                    verdict = f"check raised {type(exc).__name__}: {exc}"
        self.timings.append((dt, len(self.cal), verdict is None))
        if verdict is not None:
            self.fail(verdict)
        self._pace()
        return out

    def _pace(self) -> None:
        if self.calibrate and perf_counter() - self._last_cal >= CAL_EVERY_S:
            self.cal.append(calibration_kernel())
            self._last_cal = perf_counter()

    def step(self, run, check):
        """Timed work that is not an op, such as an enumeration feeding ops.

        It counts toward the timed wall time but adds no latency sample and
        no attempt, unless it raises or fails its check: then it counts as
        one failed attempt and None is returned.
        """
        with self.span("step", new_op=True):
            t0 = perf_counter()
            try:
                out = run()
                verdict = None
            except Exception as exc:
                out, verdict = None, f"step raised {type(exc).__name__}: {exc}"
            self.timings.append((perf_counter() - t0, len(self.cal), False))
        if verdict is None:
            with self.span("check"):
                verdict = check(out)
        self._pace()
        if verdict is not None:
            self.attempted += 1
            self.fail(verdict)
            return None
        return out
