"""Spans around playlog's public functions, recorded from outside the program.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``playlog`` module (``parse_detection`` is called through both
``gamelog`` and ``cli``, ``iou`` through ``matching`` and ``jersey``, and
so on) with a wrapper that records a span: name, start, end, parent span
and workload iteration.  Spans live in flat arrays until the run ends.

The program is single-threaded, so spans nest strictly: the children of a
span are disjoint and lie inside it.  A span's self time is therefore its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# (module, function, span name); every binding of the function is wrapped
SPANS = (
    ("gamelog", "parse_detection", "gamelog.parse_detection"),
    ("gamelog", "load_detections", "gamelog.load_detections"),
    ("gamelog", "serialize_detection", "gamelog.serialize_detection"),
    ("gamelog", "synchronize", "gamelog.synchronize"),
    ("gamelog", "emit_game_log", "gamelog.emit_game_log"),
    ("jersey", "suppress_digits", "jersey.suppress_digits"),
    ("jersey", "assemble_number", "jersey.assemble_number"),
    ("clock", "parse_clock_stream", "clock.parse_clock_stream"),
    ("clock", "segment_plays", "clock.segment_plays"),
    ("matching", "match_detections", "matching.match_detections"),
    ("metrics", "evaluate_detections", "metrics.evaluate_detections"),
    ("metrics", "average_precision", "metrics.average_precision"),
    ("metrics", "confusion_matrix", "metrics.confusion_matrix"),
    ("imageops", "read_image", "imageops.read_image"),
    ("teamcolor", "extract_strip", "teamcolor.extract_strip"),
    ("teamcolor", "channel_histogram", "teamcolor.channel_histogram"),
    ("teamcolor", "classify_team", "teamcolor.classify_team"),
    ("config", "load_values", "config"),
    ("config", "build_game_config", "config"),
    ("config", "build_assembly", "config"),
    ("config", "build_segmenter", "config"),
    ("config", "build_profiles", "config"),
    ("cli", "run", "cli"),
)
VALIDATED = ("BoundingBox", "DigitDetection", "PlayerDetection")  # core.validate
COUNTED = (("matching", "iou", "matching.iou"),)  # call count only, no span


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counters taken where the work happens: hook(counts, args, kwargs, result)
def _suppress(counts, args, kwargs, result) -> None:
    counts["jersey.digits_in"] += len(_arg(args, kwargs, 0, "digits"))
    counts["jersey.digits_kept"] += len(result)


def _assemble(counts, args, kwargs, result) -> None:
    counts["jersey.numbered"] += result is not None


def _clock_stream(counts, args, kwargs, result) -> None:
    counts["clock.lines_skipped"] += len(result.diagnostics)


def _segment(counts, args, kwargs, result) -> None:
    counts["clock.windows_out"] += len(result)


def _match(counts, args, kwargs, result) -> None:
    counts["matching.preds"] += len(result)
    counts["matching.matched"] += sum(g is not None for g in result)


def _read_image(counts, args, kwargs, result) -> None:
    counts["imageops.read_image.bytes"] += result.width * result.height * result.channels


def _classify(counts, args, kwargs, result) -> None:
    counts["teamcolor.unknown"] += result == "unknown"


HOOKS: dict[str, Callable] = {
    "jersey.suppress_digits": _suppress,
    "jersey.assemble_number": _assemble,
    "clock.parse_clock_stream": _clock_stream,
    "clock.segment_plays": _segment,
    "matching.match_detections": _match,
    "imageops.read_image": _read_image,
    "teamcolor.classify_team": _classify,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.iteration_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.iteration = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, original: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        names, parents, iterations, starts, ends = self.name, self.parent, self.iteration_id, self.start, self.end

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            iterations.append(self.iteration)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, original: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "playlog" or key.startswith("playlog.")]
        targets = [(m, f, n, self._span) for m, f, n in SPANS] + [(m, f, n, self._counter) for m, f, n in COUNTED]
        # a function the program no longer has keeps its name, with no calls
        for module_name, func, span_name, make in targets:
            self._name_id(span_name)
            original = getattr(sys.modules[f"playlog.{module_name}"], func, None)
            if original is None:
                continue
            wrapper = make(original, span_name)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._replace(module, func, wrapper)
        self._name_id("core.validate")
        core = sys.modules["playlog.core"]
        for cls_name in VALIDATED:
            cls = getattr(core, cls_name, None)
            if cls is not None and hasattr(cls, "__post_init__"):
                self._replace(cls, "__post_init__", self._span(cls.__post_init__, "core.validate"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "iteration": np.frombuffer(self.iteration_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the name table) as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(tmp, names=np.array(self.names), **self.arrays())
        tmp.replace(path)

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        a = self.arrays()
        return layer_times(a["name"], a["parent"], a["start"], a["end"], self.names)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per span: duration minus the time its direct children cover.

    Children of one span never overlap (single-threaded strict nesting),
    so the time they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_times(name: np.ndarray, parent: np.ndarray, start: np.ndarray, end: np.ndarray,
                names: list[str]) -> dict[str, tuple[int, float]]:
    own = self_times(parent, start, end)
    calls = np.bincount(name, minlength=len(names))
    seconds = np.bincount(name, weights=own, minlength=len(names))
    return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(names)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(metrics: list[str], times: dict[str, tuple[int, float]],
                     counts: Counter) -> dict[str, float]:
    """Every per-layer metric except synth and trace overhead (the runner adds those).

    ``<span>.calls`` and ``<span>.self_s`` in ``metrics`` come from the
    span times; the rest from counters.  A ratio whose layer did no work
    reads 0.
    """
    values: dict[str, float] = {}
    for metric in metrics:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls" and layer in times:
            values[metric] = times[layer][0]
        elif kind == "self_s" and layer in times:
            values[metric] = times[layer][1]
    values["matching.iou.calls"] = counts["matching.iou"]
    values["imageops.read_image.bytes"] = counts["imageops.read_image.bytes"]
    values["clock.lines_skipped"] = counts["clock.lines_skipped"]
    values["clock.windows_out"] = counts["clock.windows_out"]
    values["jersey.digits_kept_frac"] = _ratio(counts["jersey.digits_kept"], counts["jersey.digits_in"])
    values["jersey.numbered_frac"] = _ratio(counts["jersey.numbered"], times["jersey.assemble_number"][0])
    values["matching.matched_frac"] = _ratio(counts["matching.matched"], counts["matching.preds"])
    values["teamcolor.unknown_frac"] = _ratio(counts["teamcolor.unknown"], times["teamcolor.classify_team"][0])
    return values
