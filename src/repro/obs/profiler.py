"""A stdlib sampling wall-clock profiler (``repro profile``).

A background thread snapshots the target thread's stack via
``sys._current_frames()`` at a fixed interval (default 1 kHz) and
accumulates collapsed call stacks — the deterministic-tracer alternative
(``cProfile``) distorts exactly the nanosecond-scale hot paths this repo
cares about, while sampling costs the profiled thread nothing between
samples.  Output:

* ``collapsed()`` — ``frame;frame;frame count`` lines, the flamegraph
  interchange format (feed to ``flamegraph.pl`` / speedscope as-is);
* ``as_dict()`` — the ``repro.profile/1`` JSON document (stacks, per-frame
  self/total samples, span attribution);
* ``self_times()`` — per-frame *self* attribution (samples where the
  frame was the leaf), the "where is the time actually spent" table.

Span attribution rides the existing :class:`~repro.obs.tracing.Tracer`:
pass one, and every sample also records the tracer's innermost open span
at that instant (a cross-thread read of ``tracer.current`` — racy by
design, which is fine for a statistical profile), so engine spans like
``query.execute`` get wall-clock self-time without any per-span
instrumentation cost.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["PROFILE_SCHEMA_VERSION", "SamplingProfiler", "frame_label"]

PROFILE_SCHEMA_VERSION = "repro.profile/1"


def frame_label(code) -> str:
    """``path/to/file.py:function`` with the path shortened to the package.

    Paths inside the ``repro`` package render as ``repro/<sub>/file.py``
    so labels are stable across checkouts and virtualenvs.
    """
    filename = code.co_filename.replace("\\", "/")
    for anchor in ("/repro/", "/benchmarks/"):
        index = filename.rfind(anchor)
        if index != -1:
            filename = filename[index + 1 :]
            break
    else:
        filename = filename.rsplit("/", 1)[-1]
    return f"{filename}:{code.co_name}"


class SamplingProfiler:
    """Sample one thread's stack from a daemon thread at ``interval`` s.

    Use as a context manager or with explicit :meth:`start` /
    :meth:`stop`.  The profiled thread defaults to the one that calls
    ``start()``.  ``max_depth`` bounds the recorded stack (deep recursion
    keeps its leaf; the root side is truncated).
    """

    def __init__(
        self,
        interval: float = 0.001,
        tracer=None,
        max_depth: int = 128,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.tracer = tracer
        self.max_depth = max_depth
        #: stack tuple (root ... leaf) -> samples
        self.stacks: Counter = Counter()
        #: span name -> samples (only when a tracer is attached)
        self.span_samples: Counter = Counter()
        self.samples = 0
        self.started: Optional[float] = None
        self.wall_time = 0.0
        self._target_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------------

    def start(self, target_thread: Optional[threading.Thread] = None) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._target_id = (
            target_thread.ident if target_thread is not None else threading.get_ident()
        )
        self._stop.clear()
        self.started = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self.started is not None:
            self.wall_time += time.perf_counter() - self.started
            self.started = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def profile(self, fn, *args, **kwargs):
        """Run ``fn`` under the profiler; returns ``fn``'s result."""
        self.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stop()

    # -- the sampler -------------------------------------------------------------

    def _sample_loop(self) -> None:
        target_id = self._target_id
        tracer = self.tracer
        interval = self.interval
        stacks = self.stacks
        wait = self._stop.wait
        while not wait(interval):
            frame = sys._current_frames().get(target_id)
            if frame is None:  # target thread exited
                break
            labels: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                labels.append(frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            if not labels:  # pragma: no cover - empty stack
                continue
            labels.reverse()  # root ... leaf
            stacks[tuple(labels)] += 1
            self.samples += 1
            if tracer is not None:
                span = tracer.current  # racy cross-thread read, by design
                if span is not None:
                    self.span_samples[span.name] += 1

    # -- reports -----------------------------------------------------------------

    def self_times(self) -> List[Tuple[str, int, float]]:
        """``(frame, samples, seconds)`` by self time (leaf samples), descending."""
        leaves: Counter = Counter()
        for stack, count in self.stacks.items():
            leaves[stack[-1]] += count
        interval = self.interval
        return [
            (frame, count, count * interval)
            for frame, count in leaves.most_common()
        ]

    def per_span(self) -> List[Tuple[str, int, float]]:
        """``(span name, samples, seconds)`` attribution, descending."""
        interval = self.interval
        return [
            (name, count, count * interval)
            for name, count in self.span_samples.most_common()
        ]

    def collapsed(self) -> List[str]:
        """Flamegraph-ready collapsed stacks: ``root;...;leaf count``."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro.profile/1`` JSON document."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "interval": self.interval,
            "samples": self.samples,
            "wall_time": self.wall_time,
            "stacks": [
                {"frames": list(stack), "count": count}
                for stack, count in sorted(
                    self.stacks.items(), key=lambda item: (-item[1], item[0])
                )
            ],
            "self": [
                {"frame": frame, "samples": count, "seconds": seconds}
                for frame, count, seconds in self.self_times()
            ],
            "spans": [
                {"span": name, "samples": count, "seconds": seconds}
                for name, count, seconds in self.per_span()
            ],
        }

    def render_top(self, limit: int = 15) -> str:
        """An aligned text table of the hottest frames by self time."""
        rows = self.self_times()[:limit]
        if not rows:
            return "(no samples)"
        total = self.samples or 1
        width = max(len(frame) for frame, _, _ in rows)
        lines = [
            f"{self.samples} samples over {self.wall_time:.2f}s "
            f"at {1 / self.interval:.0f} Hz"
        ]
        for frame, count, seconds in rows:
            lines.append(
                f"  {frame.ljust(width)}  {count:>6}  "
                f"{100 * count / total:5.1f}%  {seconds:8.3f}s"
            )
        spans = self.per_span()
        if spans:
            lines.append("per-span self time:")
            span_width = max(len(name) for name, _, _ in spans)
            for name, count, seconds in spans[:limit]:
                lines.append(
                    f"  {name.ljust(span_width)}  {count:>6}  "
                    f"{100 * count / total:5.1f}%  {seconds:8.3f}s"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "running" if self._thread is not None else "stopped"
        return (
            f"<SamplingProfiler {state} samples={self.samples} "
            f"interval={self.interval}>"
        )
