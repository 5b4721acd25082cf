"""Box-filter Hessian interest points, orientations, descriptors, matching.

Detection approximates the Hessian determinant with integral-image box
filters at filter sizes 9, 15, 21, 27 in the first octave; each further
octave doubles both the size gap between layers and the sampling stride.
The filter response at size L is (Dxx * Dyy - (0.9 * Dxy)^2) with each
derivative normalized by the filter area L^2.

Sign convention: the second-derivative filters are oriented so that a bright
blob on a dark background gives a positive trace, hence laplacian_sign =
sign(Dxx + Dyy) is +1 for bright-on-dark and -1 for dark-on-bright. The
determinant is unchanged by this choice.

Scale equals 1.2 * L / 9, i.e. the 9x9 filter corresponds to sigma = 1.2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InitializationError
from .image import IntegralImage, box_sum_slices, edge_extended

BASE_SCALE = 1.2            # scale of the 9x9 base filter
BASE_FILTER = 9
DXY_WEIGHT = 0.9
LAYERS_PER_OCTAVE = 4

ORIENTATION_RADIUS = 6      # sampling disk radius, in units of scale
ORIENTATION_SIGMA = 2.0     # Gaussian weight, in units of scale
ORIENTATION_WINDOW = math.pi / 3.0
ORIENTATION_STEP = math.pi / 36.0

DESCRIPTOR_SIGMA = 3.3      # Gaussian weight, in units of scale
LONE_MATCH_LIMIT = 0.5      # max distance for a single sign-compatible candidate
# descriptor differences match_descriptors holds at once; blocks that stay
# in cache ran twice as fast as 16 MB ones on a 331 x 331 keypoint match
MATCH_BLOCK_BYTES = 1 << 18

TWO_PI = 2.0 * math.pi

# the 26 scale-space neighbor offsets (ds, dy, dx): same-layer ones first,
# the four nearest leading, as they reject the most candidates
_NEIGHBORS = sorted((o for o in itertools.product((-1, 0, 1), repeat=3) if any(o)),
                    key=lambda o: (o[0] != 0, abs(o[1]) + abs(o[2])))


@dataclass
class DetectorParams:
    """Detection and matching knobs."""

    hessian_threshold: float = 0.0002
    octaves: int = 3
    init_step: int = 1
    ratio: float = 0.7

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hessian_threshold <= 0.0:
            raise ValueError("hessian_threshold must be > 0")
        if self.octaves < 1:
            raise ValueError("octaves must be >= 1")
        if self.init_step < 1:
            raise ValueError("init_step must be >= 1")
        _check_ratio(self.ratio)


def _check_ratio(ratio: float) -> None:
    # a NaN fails the chained comparison, so it is rejected too
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")


@dataclass(eq=False)
class KeyPoint:
    """An interest point in pixel coordinates (sub-pixel after refinement)."""

    x: float
    y: float
    scale: float
    response: float
    laplacian_sign: int
    orientation: float = 0.0
    descriptor: np.ndarray | None = None
    orientation_fallback: bool = False  # set when the orientation disk did not fit


@dataclass(frozen=True)
class Match:
    index_a: int
    index_b: int
    distance: float


class ExtremitySelection(NamedTuple):
    points: list            # 8 KeyPoints in anchor order
    reused: tuple           # parallel flags, True where a keypoint was reused


def _layer_sizes(octave: int) -> list[int]:
    gap = 6 * 2 ** (octave - 1)
    return [3 + gap + k * gap for k in range(LAYERS_PER_OCTAVE)]


def _hessian_layer(ext, pad, width, height, size, step):
    """Determinant and trace responses of one filter size over the dense grid.

    The grid is arange(0, width, step) x arange(0, height, step); `ext` is
    the edge-extended table from `edge_extended` with `pad` >= (size - 1) // 2.
    """
    lobe = size // 3
    border = (size - 1) // 2
    half = lobe // 2
    inv_area = 1.0 / float(size * size)

    def boxes(dx0, dy0, dx1, dy1):
        return box_sum_slices(ext, pad, width, height, step, dx0, dy0, dx1, dy1)

    # bright-center convention: 3 * middle lobe - whole filter footprint
    whole_x = boxes(-border, -(lobe - 1), border, lobe - 1)
    mid_x = boxes(-half, -(lobe - 1), -half + lobe - 1, lobe - 1)
    dxx = (3.0 * mid_x - whole_x) * inv_area
    whole_y = boxes(-(lobe - 1), -border, lobe - 1, border)
    mid_y = boxes(-(lobe - 1), -half, lobe - 1, -half + lobe - 1)
    dyy = (3.0 * mid_y - whole_y) * inv_area
    upper_right = boxes(1, -lobe, lobe, -1)
    lower_left = boxes(-lobe, 1, -1, lobe)
    upper_left = boxes(-lobe, -lobe, -1, -1)
    lower_right = boxes(1, 1, lobe, lobe)
    dxy = (upper_left + lower_right - upper_right - lower_left) * inv_area

    det = dxx * dyy - (DXY_WEIGHT * DXY_WEIGHT) * dxy * dxy
    return det, dxx + dyy


def _octave_steps(width: int, height: int, params: DetectorParams) -> list[tuple[int, int]]:
    """(octave, sampling stride) of every octave that runs, in order.

    An octave runs when its smallest filter fits in the image and its grid
    has at least 3 samples per axis; the first octave that fails ends the
    scale space.
    """
    runs = []
    for octave in range(1, params.octaves + 1):
        step = params.init_step * 2 ** (octave - 1)
        if (_layer_sizes(octave)[0] > min(width, height)
                or len(range(0, width, step)) < 3 or len(range(0, height, step)) < 3):
            break
        runs.append((octave, step))
    return runs


def _strict_maxima(resp: np.ndarray, threshold: float):
    """(s, y, x) of the middle-layer samples above `threshold` and above all 26 neighbors.

    `resp` is one octave's (4, ny, nx) response stack; layers 1 and 2, away
    from the grid's border, are tested. The samples above the threshold are
    taken once; then each neighbor offset in turn, as a constant step in
    flat indices of `resp`, keeps the survivors strictly greater than that
    neighbor. The comparisons are those of the dense 26-neighbor test, and
    the indices come out in C order, so the result equals it exactly; only
    the order in which the neighbors are tried differs, which an AND of
    the comparisons cannot see.
    """
    _, ny, nx = resp.shape
    values = resp.ravel()
    s, y, x = np.nonzero(resp[1:3, 1:-1, 1:-1] > threshold)
    flat = ((s + 1) * ny + y + 1) * nx + x + 1
    center = values[flat]
    for ds, dy, dx in _NEIGHBORS:
        if not flat.size:
            break
        keep = center > values[flat + ((ds * ny + dy) * nx + dx)]
        flat = flat[keep]
        center = center[keep]
    s, yx = np.divmod(flat, ny * nx)
    y, x = np.divmod(yx, nx)
    return s, y, x


def _refine(resp: np.ndarray, s, y, x) -> np.ndarray:
    """Quadratic sub-sample offsets (ds, dy, dx) of the maxima at (s, y, x).

    Row k fits the 3x3x3 cube of `resp` centred on (s[k], y[k], x[k]), in
    layer/grid units; it stays zero, keeping the measured sample, where the
    cube's Hessian is singular or the offset exceeds one sample.
    """
    # cube[i, j, l][k] = resp[s[k] + i - 1, y[k] + j - 1, x[k] + l - 1]
    cube = np.lib.stride_tricks.sliding_window_view(resp, (3, 3, 3))[s - 1, y - 1, x - 1]
    cube = cube.transpose(1, 2, 3, 0)
    grad = 0.5 * np.array([
        cube[2, 1, 1] - cube[0, 1, 1],
        cube[1, 2, 1] - cube[1, 0, 1],
        cube[1, 1, 2] - cube[1, 1, 0],
    ])
    center = cube[1, 1, 1]
    dss = cube[2, 1, 1] - 2.0 * center + cube[0, 1, 1]
    dyy = cube[1, 2, 1] - 2.0 * center + cube[1, 0, 1]
    dxx = cube[1, 1, 2] - 2.0 * center + cube[1, 1, 0]
    dsy = 0.25 * (cube[2, 2, 1] - cube[2, 0, 1] - cube[0, 2, 1] + cube[0, 0, 1])
    dsx = 0.25 * (cube[2, 1, 2] - cube[2, 1, 0] - cube[0, 1, 2] + cube[0, 1, 0])
    dyx = 0.25 * (cube[1, 2, 2] - cube[1, 2, 0] - cube[1, 0, 2] + cube[1, 0, 0])
    hess = np.array([[dss, dsy, dsx], [dsy, dyy, dyx], [dsx, dyx, dxx]]).transpose(2, 0, 1)
    rhs = -grad.T
    # slogdet runs the LU factorization solve runs, so its zero signs mark
    # exactly the cubes solve would reject; they solve identity = 0 instead
    singular = np.linalg.slogdet(hess)[0] == 0.0
    hess[singular] = np.eye(3)
    rhs[singular] = 0.0
    offsets = np.linalg.solve(hess, rhs[..., None])[..., 0]
    # wild extrapolation keeps the measured location; a row holding nan
    # passes, as `max() > 1.0` is then false
    offsets[np.abs(offsets).max(axis=1) > 1.0] = 0.0
    return offsets


def detect_keypoints(ii: IntegralImage, params: DetectorParams) -> list[KeyPoint]:
    """Scale-space maxima of the box-filter Hessian determinant.

    Candidates are strict maxima over their 26 scale-space neighbors within
    an octave and must exceed params.hessian_threshold. Each octave's
    layers are dense box-filter grids; the maximum test then works only on
    the samples above the threshold (`_strict_maxima`), and an octave left
    with none skips refinement. Octaves whose smallest filter does not fit
    in the image are dropped. Results are sorted by descending response,
    ties by (y, x) ascending.
    """
    w, h = ii.width, ii.height
    runs = _octave_steps(w, h, params)
    if not runs:
        return []
    # pad for the largest filter that runs, not for params.octaves
    pad = (_layer_sizes(runs[-1][0])[-1] - 1) // 2
    ext = edge_extended(ii, pad)
    columns = []        # per octave: x, y, scale, response, laplacian_sign
    layers: list = []
    for octave, step in runs:
        sizes = _layer_sizes(octave)
        gap = 6 * 2 ** (octave - 1)
        # this octave's first two sizes are the previous octave's 2nd and
        # 4th, and its grid is the previous grid at [::2, ::2]
        reused = [(det[::2, ::2], tr[::2, ::2]) for det, tr in layers[1::2]]
        layers = reused + [_hessian_layer(ext, pad, w, h, size, step)
                           for size in sizes[len(reused):]]
        resp, trace = (np.stack(part) for part in zip(*layers))
        s, y, x = _strict_maxima(resp, params.hessian_threshold)
        if not s.size:
            continue
        offsets = _refine(resp, s, y, x)
        columns.append((
            (x + offsets[:, 2]) * step,
            (y + offsets[:, 1]) * step,
            BASE_SCALE * (np.array(sizes)[s] + offsets[:, 0] * gap) / BASE_FILTER,
            resp[s, y, x],
            np.where(trace[s, y, x] >= 0.0, 1, -1),
        ))
    if not columns:
        return []
    x, y, scale, response, sign = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((x, y, -response))
    return [KeyPoint(*fields) for fields in zip(
        *(c[order].tolist() for c in (x, y, scale, response, sign)))]


def _haar_xy(padded, w, h, cx, cy, half):
    """Right-minus-left and bottom-minus-top box differences at (cx, cy).

    Both boxes of each difference have side 2*half and are centred on
    (cx, cy); every value is bitwise `box_sum_grid`'s difference of the two
    boxes. All eight boxes have their corners on {cx - half, cx, cx + half}
    x {cy - half, cy, cy + half}. For a box that is non-empty after
    clamping, `box_sum_grid`'s table index of a corner coordinate is that
    coordinate clipped to [0, w] (or [0, h]), so 9 reads serve all eight
    boxes; and a box is non-empty after clamping iff its clipped corner
    coordinates differ on both axes.
    """
    steps = np.array([-1, 0, 1]).reshape((3,) + (1,) * np.ndim(cx))
    xs = np.clip(cx + steps * half, 0, w)
    ys = np.clip(cy + steps * half, 0, h) * (w + 1)     # flat offsets of table rows
    c = padded.ravel().take(ys[:, None] + xs[None, :])  # c[row, col]
    x_lo, x_hi, x_all = xs[0] < xs[1], xs[1] < xs[2], xs[0] < xs[2]
    y_lo, y_hi, y_all = ys[0] < ys[1], ys[1] < ys[2], ys[0] < ys[2]
    # each box as box_sum_grid sums it: (y1, x1) - (y0, x1) - (y1, x0) + (y0, x0)
    right = np.where(x_hi & y_all, c[2, 2] - c[0, 2] - c[2, 1] + c[0, 1], 0.0)
    left = np.where(x_lo & y_all, c[2, 1] - c[0, 1] - c[2, 0] + c[0, 0], 0.0)
    lower = np.where(x_all & y_hi, c[2, 2] - c[1, 2] - c[2, 0] + c[1, 0], 0.0)
    upper = np.where(x_all & y_lo, c[1, 2] - c[0, 2] - c[1, 0] + c[0, 0], 0.0)
    return right - left, lower - upper


_ORI_OFFSETS = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)
                         if i * i + j * j <= ORIENTATION_RADIUS ** 2])
_ORI_WEIGHTS = np.exp(-(_ORI_OFFSETS[:, 0] ** 2 + _ORI_OFFSETS[:, 1] ** 2)
                      / (2.0 * ORIENTATION_SIGMA ** 2))
_ORI_STARTS = np.arange(72) * ORIENTATION_STEP    # window k covers [k * step, k * step + pi/3)

_DESC_UNITS = np.arange(20, dtype=np.float64) - 9.5
_DESC_OX, _DESC_OY = np.meshgrid(_DESC_UNITS, _DESC_UNITS)   # (row=y, col=x)
_DESC_WEIGHTS = np.exp(-(_DESC_OX ** 2 + _DESC_OY ** 2) / (2.0 * DESCRIPTOR_SIGMA ** 2))

# keypoints described together; a chunk's (256, 72, 109) window mask takes
# about 16 MB as float64 angle differences and again as the float64 matrix
# the window sums multiply
DESCRIBE_CHUNK = 256


def _orientation_windows(angles):
    """Mask [k, i, j]: angle [k, j] lies in orientation window i.

    Bitwise equal to np.mod(angles[:, None, :] - _ORI_STARTS[:, None],
    TWO_PI) < ORIENTATION_WINDOW for angles in [0, 2*pi], without the mod.
    numpy's float mod is fmod plus a sign fix: fmod(d, 2*pi) is exactly d
    for |d| < 2*pi, and the fix then gives fl(d + 2*pi) for d < 0. Here
    d = angle - start lies in (-2*pi, 2*pi]; it reaches 2*pi only for an
    angle of exactly 2*pi (np.mod rounds a tiny negative arctan2 up to it)
    at window 0. Such an angle has the mask of 0.0 on every window: at
    window 0 both differences are 0 mod 2*pi, and at window k > 0
    fl(2*pi - start) == fl(-start + 2*pi). So 2*pi is read as 0.0, and
    then adding 2*pi to the negative differences is the whole mod.
    """
    d = np.where(angles == TWO_PI, 0.0, angles)[:, None, :] - _ORI_STARTS[:, None]
    np.add(d, TWO_PI, out=d, where=d < 0.0)
    return d < ORIENTATION_WINDOW


def _column(kps, field, shape):
    return np.array([getattr(kp, field) for kp in kps], dtype=np.float64).reshape(shape)


def _wavelet_half(scale):
    """Haar half-side max(1, round(scale)) per keypoint, as int64."""
    return np.maximum(1, np.floor(scale + 0.5).astype(np.int64))


def _assign_orientations(ii: IntegralImage, kps: list[KeyPoint]) -> None:
    """Dominant Haar-response direction of every keypoint, in [0, 2*pi), in place.

    Weighted horizontal/vertical Haar responses (wavelet side 4 * scale) are
    sampled on a disk of radius 6 * scale; the orientation is the angle of
    the largest response vector summed over a sliding pi/3 window stepped by
    pi/36 (the first such window on ties). If the disk does not fit inside
    the image the orientation is 0 and the keypoint is flagged.
    """
    w, h = ii.width, ii.height
    inside = []
    for kp in kps:
        margin = ORIENTATION_RADIUS * kp.scale
        if margin <= kp.x <= w - 1 - margin and margin <= kp.y <= h - 1 - margin:
            inside.append(kp)
        else:
            kp.orientation = 0.0
            kp.orientation_fallback = True
    s = _column(inside, "scale", (-1, 1))
    px = np.floor(_column(inside, "x", (-1, 1)) + _ORI_OFFSETS[:, 0] * s + 0.5).astype(np.int64)
    py = np.floor(_column(inside, "y", (-1, 1)) + _ORI_OFFSETS[:, 1] * s + 0.5).astype(np.int64)
    half = 2 * _wavelet_half(s)
    hx, hy = _haar_xy(ii.padded, w, h, px, py, half)
    g = np.empty(px.shape + (2,), dtype=np.float64)       # (n, samples, [x, y])
    g[:, :, 0] = _ORI_WEIGHTS * hx
    g[:, :, 1] = _ORI_WEIGHTS * hy
    angles = np.mod(np.arctan2(g[:, :, 1], g[:, :, 0]), TWO_PI)
    windows = _orientation_windows(angles)
    sums = windows.astype(np.float64) @ g                   # (n, 72, [x, y])
    norms = sums[:, :, 0] * sums[:, :, 0] + sums[:, :, 1] * sums[:, :, 1]
    # argmax keeps the first of equal norms
    for kp, total, k in zip(inside, sums, np.argmax(norms, axis=1)):
        kp.orientation = math.atan2(float(total[k, 1]), float(total[k, 0])) % TWO_PI
        kp.orientation_fallback = False


def _compute_descriptors(ii: IntegralImage, kps: list[KeyPoint]) -> None:
    """64-component oriented Haar descriptor of every keypoint, in place.

    The 20s x 20s window around the keypoint, rotated by its orientation, is
    split into 4x4 subregions sampled 5x5 each; every subregion contributes
    (sum dx, sum dy, sum |dx|, sum |dy|) of Gaussian-weighted responses
    rotated into the keypoint frame. The descriptor is unit length unless
    all-zero.
    """
    n = len(kps)
    shape = (-1, 1, 1)
    s = _column(kps, "scale", shape)
    cos_t = np.array([math.cos(kp.orientation) for kp in kps]).reshape(shape)
    sin_t = np.array([math.sin(kp.orientation) for kp in kps]).reshape(shape)
    ox = _DESC_OX * s
    oy = _DESC_OY * s
    px = np.floor(_column(kps, "x", shape) + ox * cos_t - oy * sin_t + 0.5).astype(np.int64)
    py = np.floor(_column(kps, "y", shape) + ox * sin_t + oy * cos_t + 0.5).astype(np.int64)
    half = _wavelet_half(s)
    hx, hy = _haar_xy(ii.padded, ii.width, ii.height, px, py, half)
    dx = _DESC_WEIGHTS * (cos_t * hx + sin_t * hy)
    dy = _DESC_WEIGHTS * (-sin_t * hx + cos_t * hy)
    blocks = np.empty((n, 4, 4, 4), dtype=np.float64)
    for c, part in enumerate((dx, dy, np.abs(dx), np.abs(dy))):
        blocks[..., c] = part.reshape(n, 4, 5, 4, 5).sum(axis=(2, 4))
    descs = blocks.reshape(n, 64)
    norms = np.sqrt((descs * descs).sum(axis=1, keepdims=True))
    np.divide(descs, norms, out=descs, where=norms > 0.0)
    for kp, desc in zip(kps, descs):
        kp.descriptor = desc


def describe_keypoints(ii: IntegralImage, kps: list[KeyPoint]) -> list[KeyPoint]:
    """Assign orientation and descriptor to every keypoint, in place.

    Keypoints are processed DESCRIBE_CHUNK at a time with array operations
    (`_assign_orientations`, then `_compute_descriptors`); each result is
    bitwise the one a list of that keypoint alone gives.
    """
    for start in range(0, len(kps), DESCRIBE_CHUNK):
        chunk = kps[start:start + DESCRIBE_CHUNK]
        _assign_orientations(ii, chunk)
        _compute_descriptors(ii, chunk)
    return kps


def _descriptors(kps: list[KeyPoint], side: str) -> list[np.ndarray]:
    descs = [kp.descriptor for kp in kps]
    for k, desc in enumerate(descs):
        if desc is None:
            raise ValueError(f"keypoint {k} of {side} has no descriptor to match")
    return descs


def match_descriptors(a: list[KeyPoint], b: list[KeyPoint],
                      ratio: float = DetectorParams.ratio) -> list[Match]:
    """Sign-gated nearest-neighbor matching with Lowe's ratio test.

    For every keypoint in `a` the nearest and second-nearest descriptors in
    `b` with the same laplacian_sign are found; the pair is kept iff
    d1/d2 < ratio. A lone sign-compatible candidate is kept iff
    d1 < 0.5. When several keypoints of `a` claim the same keypoint of `b`
    only the smallest-distance claim survives (ties to the lower index in
    `a`). Output is sorted by ascending distance. A ratio outside (0, 1],
    NaN included, and a keypoint of either side without a descriptor raise
    ValueError.

    Each sign's distances come from one matrix per block of rows of `a`
    (MATCH_BLOCK_BYTES of differences at a time); a row sums its 64 squared
    differences in the order a one-keypoint `(diff * diff).sum(axis=1)`
    does. The nearest is the first smallest distance (argmin, as a stable
    sort gives); d1 and d2 are the two smallest values (np.partition).
    """
    _check_ratio(ratio)
    descs_a = _descriptors(a, "a")
    descs_b = _descriptors(b, "b")
    if not a or not b:
        return []
    signs_b = np.array([kp.laplacian_sign for kp in b])
    rows_by_sign: dict[int, list[int]] = {}
    for i, kp in enumerate(a):
        rows_by_sign.setdefault(kp.laplacian_sign, []).append(i)
    claims: dict[int, tuple[float, int]] = {}
    for sign, rows in rows_by_sign.items():
        cols = np.flatnonzero(signs_b == sign)
        if cols.size == 0:
            continue
        group_b = np.stack([descs_b[j] for j in cols.tolist()])
        block = max(1, MATCH_BLOCK_BYTES // group_b.nbytes)
        for start in range(0, len(rows), block):
            idx = rows[start:start + block]
            diff = group_b[None] - np.stack([descs_a[i] for i in idx])[:, None]
            dists = np.sqrt((diff * diff).sum(axis=2))
            nearest = cols[dists.argmin(axis=1)].tolist()
            if cols.size > 1:
                dists = np.partition(dists, 1, axis=1)
            for i, j1, row in zip(idx, nearest, dists[:, :2].tolist()):
                d1 = row[0]
                if len(row) == 1:
                    if d1 >= LONE_MATCH_LIMIT:
                        continue
                elif row[1] <= 0.0 or d1 / row[1] >= ratio:
                    continue
                held = claims.get(j1)
                if held is None or (d1, i) < held:
                    claims[j1] = (d1, i)
    matches = [Match(i, j, d) for j, (d, i) in claims.items()]
    matches.sort(key=lambda m: (m.distance, m.index_a, m.index_b))
    return matches


def _anchors(width: int, height: int) -> list[tuple[float, float]]:
    xmid = (width - 1) / 2.0
    ymid = (height - 1) / 2.0
    xmax = float(width - 1)
    ymax = float(height - 1)
    # clockwise from the top-left corner, edge midpoints interleaved
    return [(0.0, 0.0), (xmid, 0.0), (xmax, 0.0), (xmax, ymid),
            (xmax, ymax), (xmid, ymax), (0.0, ymax), (0.0, ymid)]


def select_extremity_points(kps: list[KeyPoint], width: int, height: int) -> ExtremitySelection:
    """Pick 8 keypoints nearest the image corners and edge midpoints.

    Anchors are visited in a fixed clockwise order; each claims its nearest
    unclaimed keypoint (ties by higher response, then input order). Once all
    keypoints are claimed the remaining anchors reuse the nearest keypoint
    and are flagged. An empty keypoint list is an error: lower
    hessian_threshold to detect more points.
    """
    if not kps:
        raise InitializationError(
            "no keypoints to seed agents from; lower hessian_threshold")
    claimed: set[int] = set()
    points: list[KeyPoint] = []
    reused: list[bool] = []
    for ax, ay in _anchors(width, height):
        free = [k for k in range(len(kps)) if k not in claimed]
        pool = free if free else list(range(len(kps)))
        best = min(pool, key=lambda k: ((kps[k].x - ax) ** 2 + (kps[k].y - ay) ** 2,
                                        -kps[k].response, k))
        points.append(kps[best])
        reused.append(not free)
        if free:
            claimed.add(best)
    return ExtremitySelection(points, tuple(reused))


def format_keypoint(kp: KeyPoint) -> str:
    """One dump line: x y scale response sign orientation then 64 descriptor values."""
    if kp.descriptor is None:
        raise ValueError("keypoint has no descriptor to format")
    fields = [f"{kp.x:.9g}", f"{kp.y:.9g}", f"{kp.scale:.9g}", f"{kp.response:.9g}",
              f"{kp.laplacian_sign:d}", f"{kp.orientation:.9g}"]
    fields.extend(f"{v:.9g}" for v in kp.descriptor)
    return " ".join(fields)


def copy_keypoint(kp: KeyPoint) -> KeyPoint:
    """Independent copy; the descriptor array is shared (treated read-only)."""
    return replace(kp)
