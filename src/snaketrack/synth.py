"""Synthetic test frames: anti-aliased disks and squares.

Geometry lives in a continuous frame where pixel (i, j) covers the unit cell
[i, i+1) x [j, j+1) with center (i+0.5, j+0.5). A shape parameterized in
continuous coordinates is rendered by per-pixel coverage, so sub-pixel
translations change the image smoothly.
"""

from __future__ import annotations

import numpy as np

DISK_RADIUS_FRACTION = 0.3
SQUARE_SIDE_FRACTION = 0.4
MIN_SIZE = 32

KINDS = ("disk", "square", "translate_square")


def _grid(width: int, height: int):
    ys, xs = np.mgrid[0:height, 0:width]
    return xs + 0.5, ys + 0.5


def _check_size(width: int, height: int) -> None:
    if width < MIN_SIZE or height < MIN_SIZE:
        raise ValueError(f"frame size must be at least {MIN_SIZE}x{MIN_SIZE}")


def disk_image(width: int, height: int, center=None, radius=None,
               fg: float = 1.0, bg: float = 0.0) -> np.ndarray:
    """Bright disk on a dark background, approximated by radial coverage."""
    _check_size(width, height)
    if center is None:
        center = (width / 2.0, height / 2.0)
    if radius is None:
        radius = DISK_RADIUS_FRACTION * min(width, height)
    cx, cy = center
    px, py = _grid(width, height)
    dist = np.hypot(px - cx, py - cy)
    cover = np.clip(radius + 0.5 - dist, 0.0, 1.0)
    return bg + (fg - bg) * cover


def _interval_coverage(coords: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # overlap of the unit cell [c-0.5, c+0.5) with [lo, hi]
    return np.clip(np.minimum(coords + 0.5, hi) - np.maximum(coords - 0.5, lo),
                   0.0, 1.0)


def square_image(width: int, height: int, x0=None, y0=None, side=None,
                 fg: float = 1.0, bg: float = 0.0) -> np.ndarray:
    """Axis-aligned bright square; coverage is separable in x and y."""
    _check_size(width, height)
    if side is None:
        side = SQUARE_SIDE_FRACTION * min(width, height)
    if x0 is None:
        x0 = (width - side) / 2.0
    if y0 is None:
        y0 = (height - side) / 2.0
    px, py = _grid(width, height)
    cover = (_interval_coverage(px, x0, x0 + side)
             * _interval_coverage(py, y0, y0 + side))
    return bg + (fg - bg) * cover


def sequence(kind: str, width: int, height: int, frames: int,
             speed: float = 0.0) -> list[np.ndarray]:
    """Frames for one synthetic scene.

    disk and square are static; translate_square slides the square right by
    `speed` continuous units per frame.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown scene kind {kind!r}; choose from {KINDS}")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if not np.isfinite(speed):
        raise ValueError(f"speed must be finite, got {speed!r}")
    _check_size(width, height)
    out = []
    for f in range(frames):
        if kind == "disk":
            out.append(disk_image(width, height))
        elif kind == "square":
            out.append(square_image(width, height))
        else:
            side = SQUARE_SIDE_FRACTION * min(width, height)
            x0 = (width - side) / 2.0 + f * speed
            out.append(square_image(width, height, x0=x0))
    return out
