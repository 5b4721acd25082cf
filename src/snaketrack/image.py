"""Grayscale images and the derived fields the contour agents consume.

Conventions used throughout the package:

* intensities are float64 in [0, 1], shape (height, width), row major;
* (x, y) denotes column x and row y, with y growing downward;
* smoothing and gradients replicate edge pixels rather than zero-padding,
  so a constant image stays constant and border gradients stay finite;
* the external energy field is the negated, squared, per-image-normalized
  gradient magnitude of the smoothed image: values lie in [-1, 0] and the
  strongest edge pixels attain exactly -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError

GRADIENT_MAGNITUDE = "gradient_magnitude"
EXTERNAL_ENERGY = "external_energy"

MIN_DIMENSION = 3
# output bytes per strip of the Gaussian smoothing: about 85 rows of a
# 384-wide frame; a frame of up to 32768 pixels, such as 96², is one strip
STRIP_BYTES = 256 * 1024


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only float64 copy, so writes to the caller's array do not reach it."""
    out = np.array(array, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Image:
    """Immutable grayscale raster with intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {px.shape}")
        h, w = px.shape
        if h < MIN_DIMENSION or w < MIN_DIMENSION:
            raise SizeError(f"image {w}x{h} is smaller than {MIN_DIMENSION}x{MIN_DIMENSION}")
        if not np.isfinite(px).all():
            raise ValueError("image contains non-finite values")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", _frozen(px))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A per-pixel real field tagged with what it holds.

    kind is GRADIENT_MAGNITUDE (values >= 0) or EXTERNAL_ENERGY (values in
    [-1, 0], which the contour's energy grid relies on); every value must be
    finite.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {vals.shape}")
        if self.kind not in (GRADIENT_MAGNITUDE, EXTERNAL_ENERGY):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if vals.size:
            # min and max propagate NaN, so the pair checks finiteness too
            lo, hi = vals.min(), vals.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("field contains non-finite values")
            if self.kind == GRADIENT_MAGNITUDE and lo < 0.0:
                raise ValueError("gradient magnitude must be non-negative")
            if self.kind == EXTERNAL_ENERGY and hi > 0.0:
                raise ValueError("external energy must be non-positive")
            if self.kind == EXTERNAL_ENERGY and lo < -1.0:
                raise ValueError("external energy must be >= -1")
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class IntegralImage:
    """Summed-area table behind a leading row and column of zeros.

    padded[y + 1, x + 1] holds the sum of pixels at or above-left of (x, y);
    the zeros spare box sums any boundary special cases.
    """

    padded: np.ndarray

    def __post_init__(self):
        padded = np.asarray(self.padded)
        if padded.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {padded.shape}")
        object.__setattr__(self, "padded", _frozen(padded))

    @property
    def width(self) -> int:
        return self.padded.shape[1] - 1

    @property
    def height(self) -> int:
        return self.padded.shape[0] - 1


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-d Gaussian taps over radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    taps = np.exp(-(np.arange(-radius, radius + 1, dtype=np.float64) ** 2)
                  / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _correlate_symmetric(a: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate 2-d `a` along `axis` with an odd, symmetric kernel, edges replicated.

    Each output starts from the centre tap times its weight and then adds
    every mirrored pair, outermost first, as (left + right) * weight. That is
    scipy.ndimage.correlate1d's summation order for a symmetric kernel in
    mode "nearest", so the results agree bit for bit.

    The output is made a strip of rows at a time, about STRIP_BYTES of it
    per strip, so that each tap's pass reads and writes memory the cache
    still holds; one buffer of a strip's size takes every pair sum. Output
    rows y0 .. y1 - 1 read rows y0 + k .. y1 - 1 + k of `a` padded by r rows
    along y, and the same rows of `a` padded by r columns along x.
    """
    r = len(taps) // 2
    h, w = a.shape
    pad = ((r, r), (0, 0)) if axis == 0 else ((0, 0), (r, r))
    p = np.pad(a, pad, mode="edge")
    out = np.empty((h, w))
    rows = max(STRIP_BYTES // (out.itemsize * w), 1)
    pair = np.empty((min(rows, h), w), dtype=out.dtype)
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        tap = ([p[y0 + k:y1 + k] for k in range(2 * r + 1)] if axis == 0
               else [p[y0:y1, k:k + w] for k in range(2 * r + 1)])
        o, t = out[y0:y1], pair[:y1 - y0]
        np.multiply(tap[r], taps[r], out=o)
        for k in range(r):
            np.add(tap[k], tap[2 * r - k], out=t)
            np.multiply(t, taps[k], out=t)
            np.add(o, t, out=o)
    return out


def gaussian_smooth(img: Image, sigma: float) -> Image:
    """Separable Gaussian blur with replicated edges; sigma == 0 is identity.

    A sigma so small (below about 1e-162) that 2 sigma^2 underflows to 0
    gives non-finite taps and raises ValueError.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return img
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kernel = gaussian_kernel(sigma)
    if not np.isfinite(kernel).all():
        raise ValueError(f"sigma {sigma!r} is too small: its Gaussian taps are not finite")
    out = _correlate_symmetric(img.pixels, kernel, axis=1)
    out = _correlate_symmetric(out, kernel, axis=0)
    # the kernel sums to 1 only up to rounding; clamp so a smoothed image can
    # never leave the input's value range
    np.clip(out, img.pixels.min(), img.pixels.max(), out=out)
    return Image(out)


def gradient_magnitude(img: Image) -> ScalarField:
    """Central-difference gradient magnitude with replicated edges."""
    p = np.pad(img.pixels, 1, mode="edge")
    gx = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
    gy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
    return ScalarField(np.hypot(gx, gy), GRADIENT_MAGNITUDE)


def external_energy_map(img: Image, sigma: float) -> ScalarField:
    """Energy field -(m / max m)^2, m the gradient magnitude at sigma.

    The image is smoothed at sigma first. A featureless image (max m == 0)
    yields an all-zero field.
    """
    m = gradient_magnitude(gaussian_smooth(img, sigma)).values
    peak = m.max()
    if peak == 0.0:
        return ScalarField(np.zeros_like(m), EXTERNAL_ENERGY)
    rel = m / peak
    return ScalarField(-rel * rel, EXTERNAL_ENERGY)


def integral_image(img: Image) -> IntegralImage:
    """Build the zero-padded summed-area table of an image."""
    padded = np.zeros((img.height + 1, img.width + 1))
    np.cumsum(img.pixels, axis=0, out=padded[1:, 1:])
    np.cumsum(padded[1:, 1:], axis=1, out=padded[1:, 1:])
    return IntegralImage(padded)


def box_sum_grid(padded: np.ndarray, width: int, height: int, x0, y0, x1, y1):
    """Clamped inclusive box sums for arrays of corner coordinates.

    Rectangles are clamped to the image; a rectangle that is empty after
    clamping contributes 0. `padded` is IntegralImage.padded.

    `box_sum` is its scalar case and calls it. `box_sum_slices`, the
    dense-grid case, applies the same clamping rule and sums the same four
    terms in the same order, so the two give bitwise-equal results.
    """
    x0c = np.maximum(x0, 0)
    y0c = np.maximum(y0, 0)
    x1c = np.minimum(x1, width - 1)
    y1c = np.minimum(y1, height - 1)
    valid = (x0c <= x1c) & (y0c <= y1c)
    # table indices kept in range for empty boxes too (np.minimum and
    # np.maximum rather than np.clip, which costs several times more on scalars)
    x0i = np.minimum(x0c, width - 1)
    y0i = np.minimum(y0c, height - 1)
    x1i = np.maximum(x1c, -1) + 1
    y1i = np.maximum(y1c, -1) + 1
    total = (padded[y1i, x1i] - padded[y0i, x1i]
             - padded[y1i, x0i] + padded[y0i, x0i])
    return np.where(valid, total, 0.0)


def edge_extended(ii: IntegralImage, pad: int) -> np.ndarray:
    """`ii.padded` with `pad` edge-replicated rows and columns on every side.

    Entry [pad + v, pad + u] holds padded[clip(v, 0, h), clip(u, 0, w)]. For
    any box that is non-empty after clamping, both of box_sum_grid's corner
    indices are exactly such clipped values, so the table turns its clamped
    reads into plain shifted reads (see `box_sum_slices`).
    """
    return np.pad(ii.padded, pad, mode="edge")


def box_sum_slices(ext: np.ndarray, pad: int, width: int, height: int, step: int,
                   dx0: int, dy0: int, dx1: int, dy1: int) -> np.ndarray:
    """box_sum_grid over the dense sample grid, from four strided slices.

    Samples are X = arange(0, width, step) by Y = arange(0, height, step);
    the box at sample (x, y) is [x + dx0, x + dx1] x [y + dy0, y + dy1],
    clamped to the image. `ext` is `edge_extended(ii, pad)`; the corner
    offsets dx0, dy0, dx1 + 1 and dy1 + 1 must lie in [-pad, pad + 1]. The
    result has shape (len(Y), len(X)) and equals box_sum_grid on the same
    boxes bitwise: same table values, same four terms in the same order,
    and exactly 0.0 where a box is empty after clamping. The empty boxes
    are found per axis by integer arithmetic (`_nonempty_run`) and zeroed
    as a run of rows or columns at each end.
    """
    corners = (dx0, dy0, dx1 + 1, dy1 + 1)
    if min(corners) < -pad or max(corners) > pad + 1:
        raise ValueError(f"box offsets exceed the table padding {pad}")
    span_y = step * ((height - 1) // step) + 1
    span_x = step * ((width - 1) // step) + 1

    def corner(v, u):
        r, c = pad + v, pad + u
        return ext[r:r + span_y:step, c:c + span_x:step]

    total = (corner(dy1 + 1, dx1 + 1) - corner(dy0, dx1 + 1)
             - corner(dy1 + 1, dx0) + corner(dy0, dx0))
    # the four terms of an empty box need not cancel exactly in floating
    # point, so empty boxes are set to 0.0 explicitly; a box is empty iff
    # its row or its column is, and along each axis the non-empty samples
    # are one run
    y_first, y_stop = _nonempty_run(height, step, dy0, dy1)
    x_first, x_stop = _nonempty_run(width, step, dx0, dx1)
    total[:y_first] = 0.0
    total[y_stop:] = 0.0
    total[:, :x_first] = 0.0
    total[:, x_stop:] = 0.0
    return total


def _nonempty_run(size: int, step: int, d0: int, d1: int) -> tuple[int, int]:
    """Start and stop of the samples k whose span [k*step + d0, k*step + d1] meets [0, size - 1].

    The span ends before pixel 0 for the first ceil(-d1 / step) samples and
    starts past pixel size - 1 for every k > (size - 1 - d0) // step; an
    inverted span (d0 > d1) is empty at every sample, so its run is (0, 0).
    Both ends are clipped at 0, so they slice the sample axis as is.
    """
    if d0 > d1:
        return 0, 0
    return max(-(d1 // step), 0), max((size - 1 - d0) // step + 1, 0)


def box_sum(ii: IntegralImage, x0: int, y0: int, x1: int, y1: int) -> float:
    """Sum of pixels over the inclusive rectangle [x0, x1] x [y0, y1].

    The scalar case of `box_sum_grid`: the rectangle is clamped to the image
    bounds, and one that is empty after clamping sums to 0.0.
    """
    return float(box_sum_grid(ii.padded, ii.width, ii.height, x0, y0, x1, y1))
