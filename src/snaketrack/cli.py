"""Command line front end.

Two subcommands:

  run    segment and track a directory of frames driven by a key=value
         config file, writing contours.jsonl and metrics.csv (plus optional
         overlay images and keypoint dumps) to the output directory
  synth  render a synthetic frame sequence to numbered PGM files

Exit codes: 0 success, 1 configuration or I/O problem, 2 initialization
failure (no usable keypoints or agents), 3 tracking lost.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import netpbm, synth
from .errors import (ConfigError, DecodeError, ExtremitySelectionError,
                     InitializationError, SizeError, SnaketrackError,
                     TrackingLostError)
from .image import Image
from .snake import DISCARD, SPLIT, SegmentationResult, SnakeParams
from .surf import DetectorParams, format_keypoint
from .tracking import TrackState, init_tracking, track_frame

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INIT = 2
EXIT_LOST = 3


@dataclass
class RunConfig:
    """Run configuration: five keys of its own plus the parameter objects.

    Every key in a config file names a field of RunConfig, SnakeParams or
    DetectorParams, so each default is declared once, by the class that
    uses it.
    """

    input_dir: str = ""
    frame_glob: str = "frame_*.pgm"
    output_dir: str = ""
    snake: SnakeParams = field(default_factory=SnakeParams)
    detector: DetectorParams = field(default_factory=DetectorParams)
    emit_overlays: bool = False
    dump_keypoints: bool = False

    def items(self):
        """Every config key with its value, parameter objects flattened in place."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if dataclasses.is_dataclass(value):
                yield from ((p.name, getattr(value, p.name))
                            for p in dataclasses.fields(value))
            else:
                yield f.name, value


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored.

    Each key goes to the class that declares it, and the parameter objects
    are built here, so a bad parameter value is a ConfigError.
    """
    # parameter classes by the RunConfig field that holds them, and each
    # key's (parameter field or None for RunConfig's own, type)
    groups = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
              if dataclasses.is_dataclass(f.default_factory)}
    keys = {f.name: (None, f.type) for f in dataclasses.fields(RunConfig)
            if f.name not in groups}
    for group, cls in groups.items():
        keys.update((p.name, (group, p.type)) for p in dataclasses.fields(cls))
    casts = {"str": str, "float": float, "int": int, "bool": _parse_bool}
    values: dict[str | None, dict] = {None: {}, **{group: {} for group in groups}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        group, cast = keys[key]
        try:
            values[group][key] = casts[cast](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    own = values[None]
    for required in ("input_dir", "output_dir"):
        if not own.get(required):
            raise ConfigError(f"{required} is required")
    try:
        params = {group: cls(**values[group]) for group, cls in groups.items()}
    except ValueError as exc:
        raise ConfigError(f"bad parameter: {exc}") from None
    return RunConfig(**own, **params)


def _draw_line(rgb: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Red Bresenham segment, endpoints included; out-of-bounds pixels skipped."""
    h, w = rgb.shape[:2]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            rgb[y, x] = (255, 0, 0)
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def render_overlay(gray01: np.ndarray, result: SegmentationResult) -> np.ndarray:
    """Frame as gray RGB with each contour drawn as a closed red polyline."""
    base = np.rint(np.clip(gray01, 0.0, 1.0) * 255.0).astype(np.uint8)
    rgb = np.repeat(base[:, :, None], 3, axis=2)
    for contour in result.contours:
        pts = contour.points
        n = len(pts)
        for k in range(n):
            x0, y0 = pts[k]
            x1, y1 = pts[(k + 1) % n]
            _draw_line(rgb, x0, y0, x1, y1)
    return rgb


def _result_records(frame_index: int, result: SegmentationResult):
    for c in result.contours:
        yield {"type": "contour", "frame": frame_index, "contour_id": c.id,
               "agent_ids": list(c.agent_ids),
               "points": [[x, y] for x, y in c.points]}
    yield {"type": "events", "frame": frame_index,
           "events": [{"iteration": e.iteration, "kind": e.kind,
                       "contour_ids": list(e.contour_ids),
                       "agent_ids": list(e.agent_ids)} for e in result.events]}
    yield {"type": "energy", "frame": frame_index,
           "history": list(result.energy_history)}


def _metrics_row(frame_index: int, result: SegmentationResult,
                 offset: tuple[float, float]) -> str:
    splits = sum(1 for e in result.events if e.kind == SPLIT)
    discards = sum(1 for e in result.events if e.kind == DISCARD)
    final = result.energy_history[-1] if result.energy_history else 0.0
    return (f"{frame_index},{result.iterations},{final!r},"
            f"{len(result.contours)},{splits},{discards},"
            f"{offset[0]!r},{offset[1]!r},"
            f"{result.converged},{result.low_confidence}")


def run_command(args) -> int:
    try:
        cfg = parse_config(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    frames = sorted(Path(cfg.input_dir).glob(cfg.frame_glob))
    if not frames:
        print(f"error: no frames matched {cfg.frame_glob!r} in {cfg.input_dir}",
              file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if cfg.emit_overlays:
        (out_dir / "overlays").mkdir(exist_ok=True)
    if cfg.dump_keypoints:
        (out_dir / "keypoints").mkdir(exist_ok=True)

    state: TrackState | None = None
    try:
        with open(out_dir / "contours.jsonl", "w") as jf, \
             open(out_dir / "metrics.csv", "w") as mf:
            for key, value in cfg.items():
                mf.write(f"# {key}={value}\n")
            mf.write("frame,iterations,final_energy,contours,"
                     "splits,discards,offset_x,offset_y,"
                     "converged,low_confidence\n")
            mf.flush()
            for index, path in enumerate(frames):
                gray = netpbm.read(path)
                img = Image(pixels=gray)
                if state is None:
                    state, result = init_tracking(img, cfg.detector, cfg.snake)
                    offset = (0.0, 0.0)
                else:
                    state, result = track_frame(state, img, cfg.detector,
                                                cfg.snake)
                    offset = state.global_offset
                for rec in _result_records(index, result):
                    jf.write(json.dumps(rec) + "\n")
                jf.flush()
                mf.write(_metrics_row(index, result, offset) + "\n")
                mf.flush()
                if cfg.emit_overlays:
                    rgb = render_overlay(gray, result)
                    netpbm.write_ppm(out_dir / "overlays" / f"frame_{index:05d}.ppm",
                                     rgb)
                if cfg.dump_keypoints:
                    lines = [format_keypoint(kp) for kp in state.tracked_points]
                    (out_dir / "keypoints" / f"frame_{index:05d}.txt").write_text(
                        "\n".join(lines) + "\n")
    except (DecodeError, SizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InitializationError, ExtremitySelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INIT
    except TrackingLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOST
    return EXIT_OK


def synth_command(args) -> int:
    try:
        w_str, _, h_str = args.size.lower().partition("x")
        width, height = int(w_str), int(h_str)
    except ValueError:
        print(f"error: --size expects WxH, got {args.size!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        frames = synth.sequence(args.kind, width, height, args.frames,
                                speed=args.speed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for index, frame in enumerate(frames):
            netpbm.write_pgm(out / f"frame_{index:05d}.pgm", frame)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snaketrack",
        description="multi-agent contour segmentation and tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="process a frame directory")
    run_p.add_argument("--config", required=True, help="key=value config file")
    run_p.set_defaults(func=run_command)

    synth_p = sub.add_parser("synth", help="render synthetic frames")
    synth_p.add_argument("--kind", required=True, choices=synth.KINDS)
    synth_p.add_argument("--size", default="128x128", help="frame size WxH")
    synth_p.add_argument("--frames", type=int, default=1)
    synth_p.add_argument("--speed", type=float, default=0.0,
                         help="translation per frame in pixels")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.set_defaults(func=synth_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SnaketrackError as exc:  # anything a subcommand did not map
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
