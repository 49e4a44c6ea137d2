"""Spans and counters around the package's public functions.

The tracer wraps each function named in ``LAYERS`` and binds the wrapper
at every name a caller looks it up by: the package namespace and each
``lampgrid.*`` module that imported it (``metric`` does ``from .core
import multiply``, so patching ``core`` alone would miss its calls).
Functions called some 10^5 times or more are aggregated: one call count
and busy time, with no span per call.  The rest get one span per call.
Self time is a call's duration minus the time its traced callees cover.

A layer that the package no longer has reports zeros, so the benchmark
keeps running across refactors; ``missing`` names such layers.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

# The 17-move generating set: each state of B(r-1) is tried with every move.
MOVES = 17


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _letters(word) -> int:
    return len(getattr(word, "letters", ()))


def _ball_counts(args, kwargs, ball) -> dict:
    radius = _arg(args, kwargs, 0, "radius")
    inner = sum(1 for depth in ball.values() if depth < radius)
    return {"states": len(ball), "attempts": MOVES * inner}


def _tour_counts(args, kwargs, length) -> dict:
    # Computed from the seed algorithm's shape, not measured: each BFS level
    # sweeps eight line-subset layers of a (4n+1)^2 window, and four such
    # boolean stacks (reach, frontier, next frontier, line masks) are live.
    cells = (4 * _arg(args, kwargs, 0, "n") + 1) ** 2
    return {"cell_updates": length * 8 * cells, "bytes": 4 * 8 * cells}


@dataclass(frozen=True)
class Layer:
    name: str  # "<module>.<function>", also the metric prefix
    aggregate: bool = False
    counters: tuple[str, ...] = ()
    counts: Callable | None = None  # (args, kwargs, result) -> {counter: value}

    @property
    def module(self) -> str:
        return self.name.split(".")[0]

    @property
    def function(self) -> str:
        return self.name.split(".")[1]


LAYERS = (
    Layer("core.multiply", aggregate=True),
    Layer("core.press_effect", aggregate=True),
    Layer("core.apply_letter", aggregate=True),
    Layer("words.evaluate"),
    Layer(
        "words.parse",
        counters=("letters_out",),
        counts=lambda a, k, r: {"letters_out": _letters(r)},
    ),
    Layer("words.format_word"),
    Layer(
        "metric.witness_word",
        counters=("letters",),
        counts=lambda a, k, r: {"letters": _letters(r)},
    ),
    Layer("metric.trapezoid_summits"),
    Layer("metric.arc_press_solve"),
    Layer(
        "gf2.solve_subset_xor",
        counters=("columns",),
        counts=lambda a, k, r: {"columns": len(_arg(a, k, 0, "columns"))},
    ),
    Layer("metric.ball_with_depths", counters=("states", "attempts"), counts=_ball_counts),
    Layer("metric.sphere_sizes"),
    Layer("metric.exact_distance", counters=("expansions", "radius_exceeded")),
    Layer("metric.tour_lower_bound", counters=("cell_updates", "bytes"), counts=_tour_counts),
    Layer("metric.certify_depth"),
)

def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lampgrid" or name.startswith("lampgrid."))
    ]


def _bind(original, replacement) -> list:
    """Rebind every package-level name that holds ``original``."""
    undo = []
    for module in _package_modules():
        names = [attr for attr, value in vars(module).items() if value is original]
        for attr in names:
            setattr(module, attr, replacement)
            undo.append((module, attr, original))
    return undo


def _restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
    undo.clear()


def _find(layer: Layer):
    home = sys.modules.get(f"lampgrid.{layer.module}")
    found = getattr(home, layer.function, None)
    if found is None:
        found = getattr(sys.modules.get("lampgrid"), layer.function, None)
    return found if callable(found) else None


class Tracer:
    """Wraps the layers while installed; ``summary`` gives the per-layer numbers."""

    def __init__(self):
        self.stats = {
            layer.name: dict.fromkeys(("calls", "self_ns") + layer.counters, 0)
            for layer in LAYERS
        }
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns, self ns)
        self.missing: list[str] = []
        self._stack: list[list] = []  # per active call: [child ns, span id]
        self._undo: list = []
        self._ids = itertools.count()

    def install(self) -> None:
        for layer in LAYERS:
            original = _find(layer)
            if original is None:
                self.missing.append(layer.name)
            else:
                self._undo += _bind(original, self._wrap(layer, original))

    def uninstall(self) -> None:
        _restore(self._undo)

    def _wrap(self, layer: Layer, fn):
        stats, stack, spans = self.stats[layer.name], self._stack, self.spans
        multiply = self.stats["core.multiply"]
        clock, ids = time.perf_counter_ns, self._ids
        counts, aggregate, name = layer.counts, layer.aggregate, layer.name

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent if aggregate else next(ids)
            frame = [0, span_id]
            stack.append(frame)
            multiplies = multiply["calls"]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "RadiusExceeded" and "radius_exceeded" in stats:
                    stats["radius_exceeded"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_ns"] += elapsed - frame[0]
                if "expansions" in stats:
                    stats["expansions"] += multiply["calls"] - multiplies
                if not aggregate:
                    spans.append((span_id, parent, name, start, end, elapsed - frame[0]))
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    stats[key] += value
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer metrics, keyed as in BENCHMARK.json."""
        out = {}
        for layer in LAYERS:
            stats = self.stats[layer.name]
            out[f"{layer.name}.calls"] = stats["calls"]
            out[f"{layer.name}.self_s"] = stats["self_ns"] / 1e9
            for key in layer.counters:
                out[f"{layer.name}.{key}"] = stats[key]
        ball = self.stats["metric.ball_with_depths"]
        # New states per attempt; the identity seeds each call and is not new.
        out["metric.ball_with_depths.yield"] = (
            (ball["states"] - ball["calls"]) / ball["attempts"] if ball["attempts"] else 0.0
        )
        memo = getattr(sys.modules.get("lampgrid.core"), "_effect_memo", None)
        out["core.press_effect.memo_entries"] = len(memo) if memo is not None else 0
        return out

    def write_spans(self, path) -> None:
        """Spans in start order, as JSON, for reading a run after the fact."""
        rows = sorted(self.spans, key=lambda span: span[3])
        keys = ("id", "parent", "name", "start_ns", "end_ns", "self_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "missing": self.missing,
            "aggregated": {
                layer.name: {"calls": self.stats[layer.name]["calls"],
                             "self_ns": self.stats[layer.name]["self_ns"]}
                for layer in LAYERS if layer.aggregate
            },
            "spans": [dict(zip(keys, row)) for row in rows],
        }))


class BallMemory:
    """Peak bytes that tracemalloc sees during each ``ball_with_depths`` call.

    Kept apart from the timing tracer: tracemalloc slows every allocation,
    so its process reports memory only.
    """

    def __init__(self):
        self.peak = 0
        self._undo: list = []

    def install(self) -> None:
        layer = next(layer for layer in LAYERS if layer.function == "ball_with_depths")
        original = _find(layer)
        if original is None:
            return

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._undo = _bind(original, measured)

    def uninstall(self) -> None:
        _restore(self._undo)
