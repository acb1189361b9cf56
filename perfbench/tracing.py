"""Spans around calls into morsim's modules, recorded from outside the
package, and the per-layer figures computed from them.

A span is ``[name, start, end, parent, components, tail]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``components`` the number of
Fock amplitudes the call consumed or produced, ``tail`` the weight the call
moved into the truncation tail.  The wrappers are installed at run time in
the namespace where each caller looks the name up.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter


def _amplitudes(state) -> int:
    return len(getattr(state, "amplitudes", ()))


def _channel_counts(args, result):
    grown = getattr(result, "truncation_tail", 0.0) - getattr(args[0], "truncation_tail", 0.0)
    return _amplitudes(result), grown


def _input_counts(args, result):
    return _amplitudes(args[0]), 0.0


def _output_counts(args, result):
    return _amplitudes(result), 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4], span[5] = counts(args, result)
            return result
        return traced

    def patch(self, name: str, modules, attr: str, counts=None) -> None:
        """Replace ``attr`` in every module that binds it by a traced wrapper."""
        for module in modules:
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(name, fn, counts))


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer exposes where its callers look
    them up.  ``verify`` binds the channel as a default argument, so the
    traced channel is passed through ``run_all(apply_mor_fn=...)``."""
    from morsim import cli, detection, medium, oracles, verify

    callers = (cli, detection, verify)
    channel = tracer.wrap("medium.apply_mor", medium.apply_mor, _channel_counts)
    if getattr(detection, "apply_mor", None) is medium.apply_mor:
        detection.apply_mor = channel
    run_all = verify.run_all
    if "apply_mor_fn" in inspect.signature(run_all).parameters:
        verify.run_all = functools.partial(run_all, apply_mor_fn=channel)

    tracer.patch("fock.normally_ordered_moment", callers, "normally_ordered_moment",
                 _input_counts)
    tracer.patch("fock.projection_probability", callers, "projection_probability")
    for attr in ("build_state", "collinear_state", "noncollinear_state"):
        tracer.patch("sources.build_state", callers, attr, _output_counts)
    tracer.patch("detection.fringe_scan", callers, "fringe_scan")
    for attr, fn in vars(oracles).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == oracles.__name__ and attr[0] != "_":
            tracer.patch("oracles", (oracles,), attr)
    for attr, fn in vars(verify).copy().items():
        if attr.startswith("check_") and inspect.isfunction(fn):
            tracer.patch(f"verify.{attr}", (verify,), attr)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, first-call and mean
    later-call milliseconds, components and tail weight.  A span whose
    parent has the same name is counted within its parent."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, components, tail) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == name:
            continue
        layer = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "cold_ms": 0.0, "components": 0, "tail": 0.0})
        if layer["calls"] == 0:
            layer["cold_ms"] = 1e3 * (end - start)
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += end - start - child_time[i]
        layer["components"] += components
        layer["tail"] += tail
    for layer in layers.values():
        later = layer["calls"] - 1
        layer["warm_ms"] = (1e3 * layer["total_s"] - layer["cold_ms"]) / later if later else 0.0
    return layers
