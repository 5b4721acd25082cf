"""Output checks computed from scene geometry, not from recorded outputs.

Contour points are pixel indices; pixel (i, j) has its centre at
(i + 0.5, j + 0.5) in the continuous frame the scenes are drawn in. A
contour's region is the set of pixel centres inside the polygon through its
agents' pixel centres (even-odd rule).

`self_test` feeds each check a case it must accept and a corrupted case it
must reject; `run.py` folds its verdict into the result's `correct` flag.
"""

from __future__ import annotations

import math

import numpy as np

from snaketrack.snake import DISCARD, RESAMPLE, ContourResult, SegmentationResult

from scenes import Disk, Square

TRACK_MIN_IOU = 0.6         # a square contour 10 px off scores 0.587 or less
RING_MAX_MEAN_DISTANCE = 1.5
SHIFT_TOLERANCE = 0.5       # the median displacement rounds to the true shift
CORRECT_MATCH_RADIUS = 1.0
UNIT_TOLERANCE = 1e-9


def polygon_mask(contours, width: int, height: int) -> np.ndarray:
    """Pixels inside any of the closed polygons, one scanline per row."""
    mask = np.zeros((height, width), dtype=bool)
    cols = np.arange(width, dtype=np.float64)
    for pts in contours:
        p = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        if len(p) < 3:
            continue
        q = np.roll(p, -1, axis=0)
        x0, y0, x1, y1 = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
        lo = max(int(math.ceil(p[:, 1].min())), 0)
        hi = min(int(math.floor(p[:, 1].max())), height - 1)
        for y in range(lo, hi + 1):
            spans = ((y0 <= y) & (y < y1)) | ((y1 <= y) & (y < y0))
            xs = np.sort(x0[spans] + (y - y0[spans]) * (x1[spans] - x0[spans])
                         / (y1[spans] - y0[spans]))
            right = len(xs) - np.searchsorted(xs, cols, side="right")
            mask[y] ^= (right % 2).astype(bool)
    return mask


def square_mask(squares, width: int, height: int) -> np.ndarray:
    cx = np.arange(width) + 0.5
    cy = np.arange(height) + 0.5
    mask = np.zeros((height, width), dtype=bool)
    for s in squares:
        mask |= np.outer((cy >= s.y0) & (cy < s.y0 + s.side),
                         (cx >= s.x0) & (cx < s.x0 + s.side))
    return mask


def disk_mask(disks, width: int, height: int) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width] + 0.5
    mask = np.zeros((height, width), dtype=bool)
    for d in disks:
        mask |= np.hypot(xs - d.cx, ys - d.cy) < d.radius
    return mask


def iou(a: np.ndarray, b: np.ndarray) -> float:
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 0.0


def energy_non_increasing(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


def agents_conserved(start_count: int, result: SegmentationResult) -> bool:
    """Start agents + resampled - discarded == final agents."""
    added = sum(len(e.agent_ids) for e in result.events if e.kind == RESAMPLE)
    removed = sum(len(e.agent_ids) for e in result.events if e.kind == DISCARD)
    final = sum(len(c.agent_ids) for c in result.contours)
    return start_count + added - removed == final


def circle_distances(contours, disks) -> list[float]:
    """Mean |distance to centre - radius| per contour, against the nearest disk."""
    out = []
    for pts in contours:
        p = np.asarray(pts, dtype=np.float64) + 0.5
        mx, my = p.mean(axis=0)
        d = min(disks, key=lambda d: math.hypot(d.cx - mx, d.cy - my))
        out.append(float(np.abs(np.hypot(p[:, 0] - d.cx, p[:, 1] - d.cy)
                                - d.radius).mean()))
    return out


def displacements(matches, prev, cur) -> np.ndarray:
    return np.array([(cur[m.index_b].x - prev[m.index_a].x,
                      cur[m.index_b].y - prev[m.index_a].y) for m in matches],
                    dtype=np.float64).reshape(-1, 2)


def median_shift_ok(disp: np.ndarray, shift) -> bool:
    if len(disp) == 0:
        return False
    med = np.median(disp, axis=0)
    return bool(np.all(np.abs(med - np.asarray(shift, dtype=np.float64))
                       <= SHIFT_TOLERANCE))


def correct_matches(disp: np.ndarray, shift) -> int:
    err = disp - np.asarray(shift, dtype=np.float64)
    return int(np.count_nonzero(np.hypot(err[:, 0], err[:, 1]) <= CORRECT_MATCH_RADIUS))


def unit_descriptors(kps) -> bool:
    """Every keypoint is described; each non-zero descriptor has unit length."""
    for kp in kps:
        if kp.descriptor is None:
            return False
        norm = float(np.sqrt(np.dot(kp.descriptor, kp.descriptor)))
        if norm != 0.0 and abs(norm - 1.0) > UNIT_TOLERANCE:
            return False
    return True


def self_test() -> list[str]:
    """Names of the checks that accepted a corrupted case or rejected a good one."""
    bad = []
    size = 96
    sq = Square(28.8, 28.8, 38.4)
    truth = square_mask([sq], size, size)
    edge = [(29, y) for y in range(29, 67)] + [(x, 66) for x in range(30, 67)]
    edge += [(66, y) for y in range(65, 28, -1)] + [(x, 29) for x in range(65, 29, -1)]
    moved = [(x + 10, y) for x, y in edge]
    if not iou(polygon_mask([edge], size, size), truth) >= TRACK_MIN_IOU:
        bad.append("square contour rejected")
    if iou(polygon_mask([moved], size, size), truth) >= TRACK_MIN_IOU:
        bad.append("square contour shifted by 10 px accepted")

    disk = Disk(48.0, 48.0, 20.0)
    ring = [(int(math.floor(48 + 19.5 * math.cos(a))), int(math.floor(48 + 19.5 * math.sin(a))))
            for a in np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False)]
    if not max(circle_distances([ring], [disk])) <= RING_MAX_MEAN_DISTANCE:
        bad.append("disk contour rejected")
    if max(circle_distances([[(x + 10, y) for x, y in ring]], [disk])) <= RING_MAX_MEAN_DISTANCE:
        bad.append("disk contour shifted by 10 px accepted")

    rng = np.random.default_rng(0)
    disp = np.array([3.0, -2.0]) + rng.normal(0.0, 0.2, (50, 2))
    if not median_shift_ok(disp, (3, -2)):
        bad.append("true shift rejected")
    if median_shift_ok(disp, (2, -2)):
        bad.append("wrong shift accepted")

    contour = ContourResult(id=0, agent_ids=tuple(range(8)), points=tuple((k, 0) for k in range(8)))
    kept = SegmentationResult(contours=(contour,), events=(), energy_history=(2.0, 1.0, 1.0),
                              iterations=2, converged=True, low_confidence=False)
    dropped = SegmentationResult(
        contours=(ContourResult(id=0, agent_ids=contour.agent_ids[:-1],
                                points=contour.points[:-1]),),
        events=(), energy_history=(2.0, 1.0, 1.5), iterations=2, converged=True,
        low_confidence=False)
    if not agents_conserved(8, kept):
        bad.append("conserved agents rejected")
    if agents_conserved(8, dropped):
        bad.append("dropped agent accepted")
    if not energy_non_increasing(kept.energy_history):
        bad.append("flat energy history rejected")
    if energy_non_increasing(dropped.energy_history):
        bad.append("rising energy history accepted")
    return bad
