"""Op runner: per-call deadline, oracle checks, latency statistics and spans.

An op is one public-API call.  Its result is checked against an oracle
after the timed loop, so checking costs no measured time.  An op fails when
it raises, hits the per-call deadline or misses its oracle; a failed op
ranks as the slowest in the latency percentiles.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: Per-call deadline.  The slowest passing calls at baseline take ~2 s (tilted
#: MC at n = 600, rate_scalar on a ~400-state chain); the documented failing
#: inputs spin ~40 s before NoConvergence.  6 s is ~3x above the one and ~7x
#: below the other.
DEADLINE_S = 6.0


class DeadlineExceeded(BaseException):
    """Raised in the main thread by the interval timer; a BaseException so
    that no ``except Exception`` in the called code can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(eq=False)
class Op:
    """One public-API call with its oracle.

    ``span`` names the layer function called (``"ldp.rate_scalar"``).
    ``check(value)`` returns None when the value matches the oracle, else a
    reason.  ``counts`` are layer work counters credited when the call
    returns.  ``defect`` names the ROADMAP item of a documented baseline
    failure; such an op is expected to fail until that item lands.
    """

    name: str
    span: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: dict = field(default_factory=dict)
    defect: str | None = None


@dataclass
class Outcome:
    op: Op
    seconds: float
    status: str          # "pass", "raised", "deadline" or "oracle"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class Tracer:
    """In-memory spans (name, start, end, parent, op id) and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": op_id}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"])


class NullTracer(Tracer):
    """Tracing off: spans and counters are dropped."""

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        yield

    def add(self, name: str, value: float) -> None:
        pass

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


def run_pass(ops: list[Op], tracer: Tracer, skip=frozenset()) -> tuple[float, dict[int, Outcome]]:
    """Run every op once under the deadline, except the indices in ``skip``.

    Returns (loop wall seconds, {op index: outcome}).
    """
    raw = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if op_id in skip:
            continue
        t0 = time.perf_counter()
        try:
            with tracer.span(op.span, op_id), deadline(DEADLINE_S):
                value = op.call()
            status, detail = "pass", ""
        except DeadlineExceeded:
            value, status, detail = None, "deadline", f"no result within {DEADLINE_S:g} s"
        except Exception as exc:  # any library error is a failed op, reported by name
            value, status, detail = None, "raised", f"{type(exc).__name__}: {exc}"[:200]
        raw.append((op_id, op, time.perf_counter() - t0, status, detail, value))
    wall = time.perf_counter() - start

    outcomes = {}
    for op_id, op, seconds, status, detail, value in raw:
        if status == "pass":
            for name, amount in op.counts.items():
                tracer.add(name, amount)
            try:
                reason = op.check(value)
            except Exception as exc:  # a malformed result fails its oracle
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                status, detail = "oracle", reason[:200]
        outcomes[op_id] = Outcome(op, seconds, status, detail)
    return wall, outcomes


def percentile(values: list[float], q: float, half_width: float = 5.0) -> float:
    """The q-th percentile (q in [0, 100]) of a non-empty list, estimated as
    the mean of the values ranked from q - half_width to q + half_width.

    Op latencies cluster by kind of op, with gaps between clusters; a single
    order statistic jumps across a gap when one op shifts rank, the window
    mean does not.
    """
    xs = sorted(values)
    top = len(xs) - 1
    lo = max(0, math.floor(top * (q - half_width) / 100.0))
    hi = min(top, math.ceil(top * (q + half_width) / 100.0))
    window = xs[lo:hi + 1]
    return sum(window) / len(window)


# ---------------------------------------------------------------------------
# Oracle helpers


def close(got: float, want: float, rel: float = 1e-9, abs_: float = 1e-12) -> str | None:
    if isinstance(got, float) and isinstance(want, float) and got == want:
        return None
    if not math.isfinite(got) or abs(got - want) > abs_ + rel * abs(want):
        return f"got {got!r}, oracle {want!r}"
    return None


def first(*reasons: str | None) -> str | None:
    for r in reasons:
        if r:
            return r
    return None
