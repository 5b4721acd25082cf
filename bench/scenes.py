"""Seeded inputs for the three workloads, written to disk once per run.

Every scene is drawn from a numpy Generator seeded with --seed, so the same
seed gives byte-identical frame files. Frames go through Netpbm files
because that is how the command line feeds the program: the timed loop
reads them back with `netpbm.read`.

A round is the list of sequences one workload cycles through; the timed
loop repeats whole rounds. Each sequence carries the ground truth its
output checks need (square or disk geometry, the known keypoint shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from snaketrack import netpbm, synth
from snaketrack.snake import ContourResult

# track-square96: the 96x96 translate-square scene of the acceptance suite,
# moved in 12 directions instead of one
TRACK_SIZE = 96
TRACK_FRAMES = 12
TRACK_DIRECTIONS = 12
TRACK_SPEED = 2.0

# keypoints-blobs384: 144 Gaussian blobs, shifted by a whole pixel offset
BLOB_SIZE = 384
BLOB_GRID = 12
BLOB_SEQUENCES = 4
BLOB_FRAMES = 3
BLOB_MAX_SHIFT = 4

# segment-rings384: one large and three small disks, each wrapped in a dense
# ring of agents RING_GAP pixels outside its edge
RING_SIZE = 384
RING_SEQUENCES = 4
RING_FRAMES = 3
RING_GAP = 8.0
RING_SPACING = 1.5
RING_MAX_SHIFT = 3


@dataclass(frozen=True)
class Square:
    x0: float
    y0: float
    side: float


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float


@dataclass
class Sequence:
    """Frame files of one sequence plus the truth each frame is checked against."""

    paths: list[Path]
    squares: list[list[Square]] | None = None   # per frame, track
    disks: list[list[Disk]] | None = None       # per frame, segment
    shift: tuple[int, int] | None = None        # per frame step, keypoints and segment
    rings: list[ContourResult] | None = None    # carried contours of frame 0, segment


def track_round(rng: np.random.Generator, out: Path) -> list[Sequence]:
    """12 sequences of a centred square moving TRACK_SPEED px/frame.

    The seed turns all 12 directions by one common angle below 30 degrees
    and shuffles their order.
    """
    size = TRACK_SIZE
    side = synth.SQUARE_SIDE_FRACTION * size
    start = (size - side) / 2.0
    phase = rng.uniform(0.0, 2.0 * math.pi / TRACK_DIRECTIONS)
    round_ = []
    for d in rng.permutation(TRACK_DIRECTIONS):
        angle = phase + 2.0 * math.pi * d / TRACK_DIRECTIONS
        ux, uy = math.cos(angle), math.sin(angle)
        seq = Sequence(paths=[], squares=[])
        for f in range(TRACK_FRAMES):
            sq = Square(start + f * TRACK_SPEED * ux, start + f * TRACK_SPEED * uy, side)
            path = out / f"track_{len(round_):02d}_{f:02d}.pgm"
            netpbm.write_pgm(path, synth.square_image(size, size, x0=sq.x0, y0=sq.y0,
                                                      side=side))
            seq.paths.append(path)
            seq.squares.append([sq])
        round_.append(seq)
    return round_


def _blob_field(rng: np.random.Generator, size: int):
    """One blob per cell of a BLOB_GRID x BLOB_GRID grid, jittered inside it.

    Spreading the blobs evenly keeps the keypoint count, and so the work per
    frame, nearly the same from seed to seed.
    """
    cell = size / BLOB_GRID
    centres = (np.arange(BLOB_GRID) + 0.5) * cell
    gx, gy = (a.ravel() for a in np.meshgrid(centres, centres))
    n = gx.size
    return (gx + rng.uniform(-0.35, 0.35, n) * cell, gy + rng.uniform(-0.35, 0.35, n) * cell,
            rng.uniform(2.5, 6.0, n),
            rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 0.45, n))


def _render_blobs(field, dx: int, dy: int, size: int) -> np.ndarray:
    img = np.full((size, size), 0.5)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    for x, y, sigma, amp in zip(field[0] + dx, field[1] + dy, field[2], field[3]):
        r = int(4.0 * sigma) + 1
        x0, x1 = max(int(x) - r, 0), min(int(x) + r + 1, size)
        y0, y1 = max(int(y) - r, 0), min(int(y) + r + 1, size)
        if x0 >= x1 or y0 >= y1:
            continue
        win = (slice(y0, y1), slice(x0, x1))
        img[win] += amp * np.exp(-((xs[win] - x) ** 2 + (ys[win] - y) ** 2)
                                 / (2.0 * sigma * sigma))
    return np.clip(img, 0.0, 1.0)


def write_p2(path: Path, gray01: np.ndarray) -> None:
    """Plain (ASCII) graymap, maxval 255, one image row per line."""
    levels = np.rint(gray01 * 255.0).astype(np.uint8)
    h, w = levels.shape
    rows = "\n".join(" ".join(map(str, row)) for row in levels.tolist())
    path.write_text(f"P2\n{w} {h}\n255\n{rows}\n")


def _nonzero_shift(rng: np.random.Generator, limit: int) -> tuple[int, int]:
    while True:
        sx, sy = (int(v) for v in rng.integers(-limit, limit + 1, 2))
        if (sx, sy) != (0, 0):
            return sx, sy


def keypoint_round(rng: np.random.Generator, out: Path) -> list[Sequence]:
    """BLOB_SEQUENCES blob fields; frame f is the field moved by f * shift."""
    round_ = []
    for s in range(BLOB_SEQUENCES):
        field = _blob_field(rng, BLOB_SIZE)
        shift = _nonzero_shift(rng, BLOB_MAX_SHIFT)
        seq = Sequence(paths=[], shift=shift)
        for f in range(BLOB_FRAMES):
            path = out / f"blobs_{s:02d}_{f:02d}.pgm"
            write_p2(path, _render_blobs(field, f * shift[0], f * shift[1], BLOB_SIZE))
            seq.paths.append(path)
        round_.append(seq)
    return round_


def _ring(disk: Disk, contour_id: int, first_agent: int) -> ContourResult:
    """Agents every RING_SPACING px on a circle RING_GAP px outside the disk."""
    r = disk.radius + RING_GAP
    n = int(round(2.0 * math.pi * r / RING_SPACING))
    pts: list[tuple[int, int]] = []
    for k in range(n):
        a = 2.0 * math.pi * k / n
        p = (int(math.floor(disk.cx + r * math.cos(a))),
             int(math.floor(disk.cy + r * math.sin(a))))
        if p not in pts[-1:]:
            pts.append(p)
    if pts[0] == pts[-1]:
        pts.pop()
    ids = tuple(range(first_agent, first_agent + len(pts)))
    return ContourResult(id=contour_id, agent_ids=ids, points=tuple(pts))


def _disk_layout(rng: np.random.Generator) -> list[Disk]:
    """Fixed radii, so every seed carries about the same number of agents;
    the seed moves the centres by a few pixels."""
    c = RING_SIZE / 2.0
    disks = [Disk(c + rng.uniform(-6, 6), c + rng.uniform(-6, 6), 115.0)]
    for cx, cy in ((44.0, 44.0), (RING_SIZE - 44.0, 44.0), (44.0, RING_SIZE - 44.0)):
        disks.append(Disk(cx + rng.uniform(-3, 3), cy + rng.uniform(-3, 3), 21.0))
    return disks


def ring_round(rng: np.random.Generator, out: Path) -> list[Sequence]:
    """RING_SEQUENCES disk scenes; the disks move by `shift` every frame.

    Frame 0 starts from the dense rings; later frames start from the
    previous frame's contours moved by the known shift.
    """
    size = RING_SIZE
    round_ = []
    for s in range(RING_SEQUENCES):
        layout = _disk_layout(rng)
        shift = _nonzero_shift(rng, RING_MAX_SHIFT)
        rings, first = [], 0
        for cid, disk in enumerate(layout):
            rings.append(_ring(disk, cid, first))
            first += len(rings[-1].agent_ids)
        seq = Sequence(paths=[], disks=[], shift=shift, rings=rings)
        for f in range(RING_FRAMES):
            disks = [Disk(d.cx + f * shift[0], d.cy + f * shift[1], d.radius) for d in layout]
            img = np.zeros((size, size))
            for d in disks:
                np.maximum(img, synth.disk_image(size, size, center=(d.cx, d.cy),
                                                 radius=d.radius), out=img)
            path = out / f"rings_{s:02d}_{f:02d}.pgm"
            netpbm.write_pgm(path, img)
            seq.paths.append(path)
            seq.disks.append(disks)
        round_.append(seq)
    return round_
