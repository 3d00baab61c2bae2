"""Span recorder and forwarding wrappers for the traced benchmark run.

Spans (name, start, end, parent, run id) are recorded around the calls
the benchmark makes into each fundlim layer. Calls made many times inside
the simulator (``dist.sample``, ``controller.step``) are not given a span
each; their count and total time are added to the span that is open when
they happen. Everything stays in memory until the run writes it out.

A layer is the first dotted component of a span or counter name
(``plant``, ``disturbance``, ``bounds``, ``controllers``, ``simulation``,
``cli``). Its self time is the duration of its spans minus the part that
child spans and counters cover, and minus the wrappers' own cost, which
``calibrate`` measures.
"""

from __future__ import annotations

import copy
import functools
import time

_clock = time.perf_counter


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._counters: dict = {}

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": _clock(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        self._counters = span["counters"]
        return span

    def close(self, span: dict) -> None:
        span["end"] = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._counters = self._stack[-1]["counters"] if self._stack else {}

    def add(self, name: str, seconds: float) -> None:
        """Count one call of ``name`` that took ``seconds``, on the open span."""
        entry = self._counters.get(name)
        if entry is None:
            self._counters[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def timed(self, name: str, fn):
        """Wrap ``fn`` so that each call is recorded as a span called ``name``."""

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return call

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that each call is added to the open span's counter."""

        def call(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, _clock() - t0)

        return call


class _Forwarding:
    """Pass every attribute through to the wrapped object.

    Subclasses time selected methods. Attributes the wrapped object lacks
    stay missing, so capability checks such as ``getattr(obj,
    "step_batch", None)`` see the wrapped object's own interface.
    """

    _counted_prefixes: tuple = ()
    _layer = ""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name):
        if name in ("_inner", "_recorder"):
            raise AttributeError(name)
        value = getattr(self._inner, name)
        if callable(value) and name.startswith(self._counted_prefixes):
            prefix = next(p for p in self._counted_prefixes if name.startswith(p))
            return self._recorder.counted(f"{self._layer}.{prefix}", value)
        return value

    def __deepcopy__(self, memo):
        # The copy owns a copy of the wrapped object but reports into the
        # same recorder.
        return type(self)(copy.deepcopy(self._inner, memo), self._recorder)


class TracedDisturbance(_Forwarding):
    """Disturbance model whose ``sample*`` calls count into ``disturbance.sample``."""

    _counted_prefixes = ("sample",)
    _layer = "disturbance"

    # Defined here, not reached through __getattr__, because the simulator
    # calls it once per trajectory.
    def sample(self, seed, length):
        t0 = _clock()
        try:
            return self._inner.sample(seed, length)
        finally:
            self._recorder.add("disturbance.sample", _clock() - t0)


class TracedController(_Forwarding):
    """Controller whose calls count into ``controllers.step``/``reset``/``clone``.

    ``step_batch`` and ``reset_batch`` are reached through attribute
    forwarding, so a controller without them still takes the simulator's
    per-trajectory path.
    """

    _counted_prefixes = ("step", "reset")
    _layer = "controllers"

    # Defined here, not reached through __getattr__, because the fallback
    # path calls it once per trajectory-step.
    def step(self, y):
        t0 = _clock()
        try:
            return self._inner.step(y)
        finally:
            self._recorder.add("controllers.step", _clock() - t0)

    def reset(self):
        t0 = _clock()
        try:
            return self._inner.reset()
        finally:
            self._recorder.add("controllers.reset", _clock() - t0)

    def clone(self):
        t0 = _clock()
        try:
            return TracedController(self._inner.clone(), self._recorder)
        finally:
            self._recorder.add("controllers.clone", _clock() - t0)


def calibrate(calls: int = 200_000) -> dict:
    """Cost of one counted call, split where the counter sees it.

    ``inside_s`` is what a counter adds to a call's measured time;
    ``outside_s`` is the rest of the wrapper's cost, which lands in the
    enclosing span. Both are subtracted when self times are computed.
    """

    class Noop:
        def step(self, y):
            return y

    recorder = Recorder(run_id=-1)
    span = recorder.open("trace.calibrate")
    wrapped, bare = TracedController(Noop(), recorder), Noop()
    t0 = _clock()
    for _ in range(calls):
        wrapped.step(0.0)
    t1 = _clock()
    for _ in range(calls):
        bare.step(0.0)
    t2 = _clock()
    for _ in range(calls):
        pass
    t3 = _clock()
    recorder.close(span)
    per_wrapped = (t1 - t0) / calls
    per_bare = (t2 - t1) / calls
    per_inner = max(0.0, per_bare - (t3 - t2) / calls)
    inside = max(0.0, span["counters"]["controllers.step"][1] / calls - per_inner)
    outside = max(0.0, per_wrapped - per_bare - inside)
    return {"inside_s": inside, "outside_s": outside}


NO_PROBE = {"inside_s": 0.0, "outside_s": 0.0}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _calls(span: dict) -> int:
    return sum(calls for calls, _ in span["counters"].values())


def _own(span: dict, children: float, probe: dict) -> float:
    """Span time not covered by children, counters or the wrappers' own cost."""
    counted = sum(total for _, total in span["counters"].values())
    return _duration(span) - children - counted - _calls(span) * probe["outside_s"]


def _child_time(spans: list[dict]) -> dict:
    covered: dict = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + _duration(span)
    return covered


def self_times(spans: list[dict], probe: dict = NO_PROBE) -> dict:
    """Self seconds per layer, plus the wrappers' estimated cost under ``trace``.

    Counter totals, less the calibrated bias, are charged to the counter's
    own layer. Spans are sequential within one process, so coverage is a
    plain sum.
    """
    covered = _child_time(spans)
    out: dict = {}

    def charge(layer: str, seconds: float) -> None:
        out[layer] = out.get(layer, 0.0) + seconds

    for span in spans:
        for name, (calls, total) in span["counters"].items():
            charge(layer_of(name), max(0.0, total - calls * probe["inside_s"]))
            charge("trace", calls * (probe["inside_s"] + probe["outside_s"]))
        charge(layer_of(span["name"]), _own(span, covered.get(span["id"], 0.0), probe))
    return out


def _wrapper_cost(spans: list[dict], probe: dict) -> dict:
    """Estimated wrapper seconds inside each span, descendants included."""
    per_call = probe["inside_s"] + probe["outside_s"]
    cost: dict = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        seconds = _calls(span) * per_call
        node = span
        while node is not None and seconds:
            cost[node["id"]] = cost.get(node["id"], 0.0) + seconds
            node = by_id.get(node["parent"])
    return cost


def span_total(spans: list[dict], name: str, probe: dict = NO_PROBE) -> tuple[int, float]:
    """Number of spans called ``name`` and their summed duration, less wrapper cost."""
    cost = _wrapper_cost(spans, probe)
    hits = [_duration(s) - cost.get(s["id"], 0.0) for s in spans if s["name"] == name]
    return len(hits), sum(hits)


def counter_total(spans: list[dict], name: str, probe: dict = NO_PROBE) -> tuple[int, float]:
    """Calls and seconds (less the calibrated bias) under counter ``name``."""
    calls, seconds = 0, 0.0
    for span in spans:
        entry = span["counters"].get(name)
        if entry is not None:
            calls += entry[0]
            seconds += entry[1]
    return calls, max(0.0, seconds - calls * probe["inside_s"])


def span_self(spans: list[dict], name: str, probe: dict = NO_PROBE) -> float:
    """Summed self time of the spans called ``name``."""
    covered = _child_time(spans)
    return sum(
        _own(span, covered.get(span["id"], 0.0), probe)
        for span in spans
        if span["name"] == name
    )
