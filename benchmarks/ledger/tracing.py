"""Spans recorded from outside the program.

A :class:`Tracer` times calls into a layer's public methods by swapping an
object's class for a subclass whose named methods open a span around the
original — nothing under ``src/`` is edited and the instance ``__dict__``
stays untouched, so checkpoints of a traced object pickle as usual.  Spans
stay in memory until :meth:`Tracer.records` is asked for them.

A span has a name, a parent (the span that was open when this one started),
a start, an end and an optional work count ``n`` taken at the same boundary
(pairs in a batch, ...).  While the run lasts only two flat arrays grow — an
event code and a clock reading per span boundary — so recording a span
costs four appends and adds no object the garbage collector tracks;
:meth:`Tracer.records` rebuilds the spans from the nesting of the events.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

#: ``(result, args) -> int``: the work count of one call.
Counter = Callable[[object, tuple], int]


class Tracer:
    """Spans of one run (one thread); ``run_id`` ties them together."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._names: list[str] = []
        #: ``>= 0`` opens a span of that name; ``-(n + 1)`` closes the
        #: innermost open span with work count ``n``.
        self._events = array("q")
        self._times = array("d")
        self._found: set[str] = set()
        self._absent: set[str] = set()

    @property
    def missing(self) -> set[str]:
        """Span names none of whose entry points exist on the traced objects."""
        return self._absent - self._found

    def _code(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._events.append(self._code(name))
        self._times.append(perf_counter())
        try:
            yield
        finally:
            self._times.append(perf_counter())
            self._events.append(-1)

    def _wrap(self, original: Callable, name: str, counter: Counter | None) -> Callable:
        events, times, code = self._events, self._times, self._code(name)

        def traced(*args, **kwargs):
            events.append(code)
            times.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                times.append(perf_counter())
                events.append(-1)
            if counter is not None:
                events[-1] = -1 - counter(result, args)
            return result

        return traced

    def instrument(
        self, obj: object, methods: dict[str, tuple[str, Counter | None]]
    ) -> None:
        """Open a span around each named method of ``obj``.

        A method the object's class no longer has is noted in
        :attr:`missing` (its metrics become ``null``) instead of raising.
        """
        cls = type(obj)
        namespace: dict[str, object] = {"__slots__": ()}
        for attr, (name, counter) in methods.items():
            original = getattr(cls, attr, None)
            if original is None:
                self._absent.add(name)
            else:
                self._found.add(name)
                namespace[attr] = self._wrap(original, name, counter)
        obj.__class__ = type(cls.__name__, (cls,), namespace)

    def records(self) -> list[dict]:
        """The spans as JSON-ready dicts, times relative to the first start."""
        epoch = self._times[0] if self._times else 0.0
        spans: list[dict] = []
        open_spans: list[dict] = []
        for event, at in zip(self._events, self._times):
            if event >= 0:
                span = {
                    "run": self.run_id,
                    "id": len(spans),
                    "parent": open_spans[-1]["id"] if open_spans else None,
                    "name": self._names[event],
                    "start": at - epoch,
                }
                spans.append(span)
                open_spans.append(span)
            else:
                span = open_spans.pop()
                span["end"] = at - epoch
                span["n"] = -1 - event
        return spans


def write_spans(path: Path, tracers: Iterable[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for tracer in tracers:
            for record in tracer.records():
                handle.write(json.dumps(record) + "\n")


def read_spans(path: Path) -> list[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle]


def self_times(records: list[dict]) -> dict[tuple[str, int], float]:
    """Each span's duration minus the part its child spans cover."""
    own = {(r["run"], r["id"]): r["end"] - r["start"] for r in records}
    for record in records:
        if record["parent"] is not None:
            own[(record["run"], record["parent"])] -= record["end"] - record["start"]
    return own


def summarize(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed work count, and
    how many of the calls counted no work (``empty``)."""
    own = self_times(records)
    summary: dict[str, dict[str, float]] = {}
    for record in records:
        entry = summary.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "empty": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += record["end"] - record["start"]
        entry["self_s"] += own[(record["run"], record["id"])]
        entry["n"] += record["n"]
        entry["empty"] += record["n"] == 0
    return summary


def malformed(records: list[dict], tolerance: float = 1e-6) -> list[str]:
    """Why a span file is not well formed (empty when it is).

    Children lie inside their parents, self times are non-negative, and the
    self times of a run sum to its root spans.
    """
    problems = []
    by_key = {(r["run"], r["id"]): r for r in records}
    for record in records:
        if record["end"] < record["start"]:
            problems.append(f"{record['name']}#{record['id']} ends before it starts")
        if record["parent"] is None:
            continue
        parent = by_key.get((record["run"], record["parent"]))
        if parent is None:
            problems.append(f"{record['name']}#{record['id']} has no parent span")
        elif (
            record["start"] < parent["start"] - tolerance
            or record["end"] > parent["end"] + tolerance
        ):
            problems.append(f"{record['name']}#{record['id']} leaves its parent")
    own = self_times(records)
    for key, value in own.items():
        if value < -tolerance:
            problems.append(f"span {key} has negative self time {value}")
    roots = sum(r["end"] - r["start"] for r in records if r["parent"] is None)
    if abs(sum(own.values()) - roots) > tolerance * max(1, len(records)):
        problems.append("self times do not sum to the root spans")
    return problems
