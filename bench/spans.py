"""Spans around snaketrack's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
loaded snaketrack module that holds it, so calls made inside the package
(for example `tracking` calling the `detect_keypoints` it imported from
`surf`) are recorded too. `uninstall` puts the originals back, so untraced
sequences run the unmodified code.

A span is the layer-qualified function name, its start and end on
`time.perf_counter`, the index of the enclosing span (-1 at top level) and
counts taken from the arguments and the return value. Spans stay in memory
until `write_jsonl` at the end of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time

from snaketrack.snake import DISCARD

TRACED = (
    ("netpbm", "read"),
    ("image", "integral_image"),
    ("image", "external_energy_map"),
    ("surf", "detect_keypoints"),
    ("surf", "describe_keypoints"),
    ("surf", "match_descriptors"),
    ("surf", "select_extremity_points"),
    ("tracking", "init_tracking"),
    ("tracking", "track_frame"),
    ("tracking", "propagate_points"),
    ("snake", "run_segmentation"),
    ("snake", "resume_segmentation"),
)


def _key(kp):
    return (kp.x, kp.y, kp.scale)


def _before(name, args, attrs):
    if name == "netpbm.read":
        attrs["bytes"] = os.path.getsize(args[0])
    elif name == "surf.describe_keypoints":
        attrs["keypoints"] = len(args[1])
    elif name == "snake.run_segmentation":
        attrs["agents"] = len(args[1])
    elif name == "snake.resume_segmentation":
        attrs["agents"] = sum(len(c.agent_ids) for c in args[1])


def _after(name, out, attrs, parent):
    if name == "surf.detect_keypoints":
        attrs["keypoints"] = len(out)
        if parent is not None and parent["name"] == "tracking.propagate_points":
            parent["detected"] = {_key(kp) for kp in out}
    elif name == "surf.match_descriptors":
        attrs["matches"] = len(out)
    elif name == "tracking.propagate_points":
        # a matched point adopts its detection; an unmatched one is moved by
        # the offset, which lands on a detected (x, y, scale) only by accident
        detected = attrs.pop("detected", set())
        attrs["matched"] = sum(1 for kp in out[0] if _key(kp) in detected)
    elif name in ("snake.run_segmentation", "snake.resume_segmentation"):
        attrs["sweeps"] = out.iterations
        attrs["discards"] = sum(1 for e in out.events if e.kind == DISCARD)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = {"name": name, "parent": parent, "start": 0.0, "end": 0.0}
            index = len(spans)
            spans.append(span)
            _before(name, args, span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            _after(name, out, span, spans[parent] if parent >= 0 else None)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "snaketrack" or n.startswith("snaketrack.")]
        for layer, attr in TRACED:
            original = getattr(sys.modules[f"snaketrack.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(json.dumps({**s, "self": self_s}) + "\n")
