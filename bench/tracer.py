"""In-memory span recorder that times functions by wrapping them from outside.

A span is (name, start, end, parent, trial, attrs): ``parent`` is the index
of the enclosing span or -1, ``trial`` is the id of the enclosing trial span
or -1, and ``attrs`` holds counts taken at the same boundary. Spans stay in
memory until ``dump`` writes them out; ``restore`` puts every wrapped
function back.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, TRIAL, ATTRS = range(6)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._trial = -1
        self._next_trial = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner, attr: str, name: str,
             before: Callable | None = None, after: Callable | None = None,
             trial: bool = False) -> None:
        """Replace ``owner.attr`` by a timed wrapper recording span ``name``.

        ``before(args, kwargs)`` runs ahead of the timed region and
        ``after(state, args, kwargs, result)`` behind it; the dict ``after``
        returns (or ``state`` when there is no ``after``) becomes the span's
        attrs. A ``trial`` span opens a new trial id for everything under it.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            outer_trial = self._trial
            if trial:
                self._trial = self._next_trial
                self._next_trial += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self._trial, state]
                self._trial = outer_trial
            if after is not None:
                spans[idx][ATTRS] = after(state, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load(path) -> list:
    with open(path) as fh:
        return json.load(fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The traced run is single-threaded, so siblings never overlap and the
    covered time is the sum of the children's durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
