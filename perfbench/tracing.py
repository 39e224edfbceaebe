"""Spans around the calls into each layer, and call counts per module.

Spans are recorded from the benchmark's own files: a wrapper around a
public function records one span per call, with its name, start, end,
parent span and the session and frame it belongs to. They stay in memory
and are written out once the run ends. Call counts come from a separate
pass under cProfile, the interpreter's profile hook, so they repeat
exactly between runs.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from collections import Counter

# Modules of the program whose calls are counted, by file name.
PROGRAM_MODULES = ("world", "decoder", "gating", "linalg")


class Tracer:
    """In-memory span recorder; spans are (name, start_ns, end_ns, parent, session, frame)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self._stack: list[int] = []
        self.session = -1
        self.frame = -1

    def begin_session(self) -> None:
        self.session += 1
        self.frame = -1

    def begin_frame(self) -> None:
        self.frame += 1

    def wrap(self, name: str, fn):
        """Return fn with one span recorded per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so children can name this span as parent
            parent = stack[-1] if stack else -1
            session, frame = self.session, self.frame
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, session, frame)

        return traced

    def record(self, name: str, start: int, end: int) -> None:
        """Add a span measured by the caller, under the current open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.session, self.frame))

    def durations_us(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e3 for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def session_split_us(self, name: str, frame_name: str) -> tuple[list[float], list[float]]:
        """Per `name` span: (time per frame without 'check' children, self time per frame).

        A session's frames are its `frame_name` spans. Self time is the
        span's duration minus the time its direct children cover; 'check'
        children are the benchmark's own output checks and count towards
        neither figure.
        """
        child_time: Counter[int] = Counter()
        check_time: Counter[int] = Counter()
        frames: Counter[int] = Counter()
        for s in self.spans:
            if s[0] == frame_name:
                frames[s[4]] += 1
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
                if s[0] == "check":
                    check_time[s[3]] += s[2] - s[1]
        per_frame, self_per_frame = [], []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            total, n = s[2] - s[1], frames[s[4]]
            per_frame.append((total - check_time[i]) / n / 1e3)
            self_per_frame.append((total - child_time[i]) / n / 1e3)
        return per_frame, self_per_frame

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, session, frame) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "session": session, "frame": frame,
                }) + "\n")
        os.replace(tmp, path)


def _module_of(filename: str, funcname: str) -> str | None:
    base = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "streamgate":
        mod = base[:-3] if base.endswith(".py") else base
        return mod if mod in PROGRAM_MODULES else None
    if filename == "~":
        return "numpy" if "numpy" in funcname else None
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    return None


def count_calls(fn) -> tuple[object, dict[str, int]]:
    """Run fn() under cProfile; return its result and calls per module.

    Python functions count by the file that defines them; C functions
    count as numpy when their name says so (array methods and numpy's
    builtins; ufunc calls are not seen by the profile hook). The key
    'coercions' counts linalg.as_matrix plus linalg.as_vector.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    counts: Counter[str] = Counter()
    for (filename, _line, funcname), entry in pstats.Stats(profile).stats.items():
        calls = entry[1]
        mod = _module_of(filename, funcname)
        if mod is not None:
            counts[mod] += calls
        if mod == "linalg" and funcname in ("as_matrix", "as_vector"):
            counts["coercions"] += calls
    return result, dict(counts)
