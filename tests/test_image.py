import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snaketrack.errors import SizeError
from snaketrack.image import (
    EXTERNAL_ENERGY,
    GRADIENT_MAGNITUDE,
    Image,
    IntegralImage,
    ScalarField,
    box_sum,
    box_sum_grid,
    box_sum_slices,
    edge_extended,
    external_energy_map,
    gaussian_kernel,
    gaussian_smooth,
    gradient_magnitude,
    integral_image,
)


def brute_box(arr, x0, y0, x1, y1):
    """Reference rectangle sum with the same clamp-and-empty semantics."""
    h, w = arr.shape
    x0 = max(x0, 0)
    y0 = max(y0, 0)
    x1 = min(x1, w - 1)
    y1 = min(y1, h - 1)
    if x0 > x1 or y0 > y1:
        return 0.0
    return float(arr[y0 : y1 + 1, x0 : x1 + 1].sum())


def test_image_validation():
    with pytest.raises(SizeError):
        Image(pixels=np.zeros((2, 5)))
    with pytest.raises(ValueError):
        Image(pixels=np.zeros(9))
    with pytest.raises(ValueError):
        Image(pixels=np.full((4, 4), 1.5))
    with pytest.raises(ValueError):
        Image(pixels=np.full((4, 4), np.nan))
    img = Image(pixels=np.zeros((3, 4)))
    assert (img.width, img.height) == (4, 3)
    assert not img.pixels.flags.writeable


def test_scalar_field_sign_validation():
    ScalarField(values=np.zeros((3, 3)), kind=EXTERNAL_ENERGY)
    ScalarField(values=np.full((3, 3), -1.0), kind=EXTERNAL_ENERGY)
    with pytest.raises(ValueError):
        ScalarField(values=np.full((3, 3), 0.5), kind=EXTERNAL_ENERGY)
    with pytest.raises(ValueError):
        ScalarField(values=np.full((3, 3), -0.5), kind=GRADIENT_MAGNITUDE)
    # the contour quantizes an energy field to int64 steps of 2^-32
    below = np.zeros((3, 3))
    below[2, 0] = np.nextafter(-1.0, -2.0)
    with pytest.raises(ValueError, match="^external energy must be >= -1$"):
        ScalarField(values=below, kind=EXTERNAL_ENERGY)
    # NaN fails both sign comparisons and -inf passes the energy's, so
    # finiteness is checked on its own
    for kind in (EXTERNAL_ENERGY, GRADIENT_MAGNITUDE):
        for bad in (np.nan, np.inf, -np.inf):
            vals = np.zeros((3, 3))
            vals[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                ScalarField(values=vals, kind=kind)


@pytest.mark.parametrize("fill, make", [
    (0.5, lambda v: Image(pixels=v).pixels),
    (0.5, lambda v: ScalarField(values=v, kind=GRADIENT_MAGNITUDE).values),
    (-0.5, lambda v: ScalarField(values=v, kind=EXTERNAL_ENERGY).values),
], ids=["image", "gradient_magnitude", "external_energy"])
def test_construction_leaves_the_callers_array_writable(fill, make):
    v = np.full((3, 3), fill)
    held = make(v)
    v[0, 0] = 0.0
    assert not held.flags.writeable
    assert held[0, 0] == fill


def test_integral_image_corner_is_total():
    rng = np.random.RandomState(1)
    arr = rng.random_sample((6, 9))
    ii = integral_image(Image(pixels=arr))
    assert ii.padded[-1, -1] == pytest.approx(arr.sum(), rel=1e-12)
    assert ii.padded.shape == (7, 10)
    assert (ii.width, ii.height) == (9, 6)
    assert np.all(ii.padded[0] == 0.0)
    assert np.all(ii.padded[:, 0] == 0.0)


def test_box_sum_basic_rects():
    arr = np.arange(20, dtype=np.float64).reshape(4, 5) / 20.0
    ii = integral_image(Image(pixels=arr))
    assert box_sum(ii, 0, 0, 4, 3) == pytest.approx(arr.sum())
    assert box_sum(ii, 2, 1, 2, 1) == pytest.approx(arr[1, 2])
    assert box_sum(ii, 1, 1, 3, 2) == pytest.approx(arr[1:3, 1:4].sum())


def test_box_sum_clamps_and_empties():
    arr = np.ones((4, 4)) * 0.25
    ii = integral_image(Image(pixels=arr))
    # out-of-range coordinates clamp to the image
    assert box_sum(ii, -10, -10, 10, 10) == pytest.approx(4.0)
    # inverted and fully outside rectangles are empty
    assert box_sum(ii, 3, 3, 1, 1) == 0.0
    assert box_sum(ii, 7, 0, 9, 3) == 0.0
    assert box_sum(ii, 0, -5, 3, -1) == 0.0


@settings(max_examples=60)
@given(
    st.integers(3, 16),
    st.integers(3, 16),
    st.integers(0, 10**6),
    st.data(),
)
def test_box_sum_matches_brute_force(w, h, seed, data):
    rng = np.random.RandomState(seed)
    arr = rng.random_sample((h, w))
    ii = integral_image(Image(pixels=arr))
    x0 = data.draw(st.integers(-3, w + 2))
    x1 = data.draw(st.integers(-3, w + 2))
    y0 = data.draw(st.integers(-3, h + 2))
    y1 = data.draw(st.integers(-3, h + 2))
    expect = brute_box(arr, x0, y0, x1, y1)
    got = box_sum(ii, x0, y0, x1, y1)
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_box_sum_equals_grid_case_bitwise():
    # the scalar path shares only the clamping rule with box_sum_grid; pin
    # it to the array path exactly, including outside and inverted rects
    rng = np.random.RandomState(5)
    for _ in range(20):
        w = rng.randint(3, 17)
        h = rng.randint(3, 17)
        ii = integral_image(Image(pixels=rng.random_sample((h, w))))
        xs = rng.randint(-4, w + 4, size=(200, 2))
        ys = rng.randint(-4, h + 4, size=(200, 2))
        for (x0, x1), (y0, y1) in zip(xs, ys):
            x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
            got = box_sum(ii, x0, y0, x1, y1)
            grid = box_sum_grid(ii.padded, w, h, x0, y0, x1, y1)
            assert type(got) is float
            assert got == float(grid)


def test_box_sum_slices_equals_grid_bitwise():
    # the dense path reads an edge-extended table by shifted slices and
    # zeroes empty boxes as runs; pin it to the gather path exactly, as bit
    # patterns so a -0.0 would show, including inverted boxes, boxes clamped
    # to nothing and frames narrower than the step
    rng = np.random.RandomState(11)
    pad = 12
    shapes = ((13, 7), (6, 19), (25, 25), (3, 11), (17, 4))
    # a summed-area table reads exact zeros left of and above the frame, so
    # the arbitrary tables (nonzero leading row and column, magnitudes far
    # enough apart that the four terms rarely cancel) are what show the
    # zeroing of boxes that end before the first pixel
    tables = [integral_image(Image(pixels=rng.random_sample((h, w)))) for w, h in shapes]
    tables += [IntegralImage(np.exp(rng.uniform(-8.0, 8.0, (h + 1, w + 1)))) for w, h in shapes]
    for ii in tables:
        w, h = ii.width, ii.height
        ext = edge_extended(ii, pad)
        assert ext.shape == (h + 1 + 2 * pad, w + 1 + 2 * pad)
        for step in (1, 2, 3, 4, 5, 8):
            X, Y = np.meshgrid(np.arange(0, w, step), np.arange(0, h, step))
            for trial in range(90):
                dx0, dx1 = (int(v) for v in rng.randint(-pad, pad + 1, 2))
                dy0, dy1 = (int(v) for v in rng.randint(-pad, pad + 1, 2))
                if trial % 3:
                    # two in three boxes are sorted; the rest may be inverted
                    dx0, dx1 = sorted((dx0, dx1))
                    dy0, dy1 = sorted((dy0, dy1))
                got = box_sum_slices(ext, pad, w, h, step, dx0, dy0, dx1, dy1)
                want = box_sum_grid(ii.padded, w, h, X + dx0, Y + dy0, X + dx1, Y + dy1)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # boxes wholly left of, right of, above and below the frame at
            # every sample, and ones wholly outside at only some
            for dx0, dy0, dx1, dy1 in ((-pad, 0, -pad + 1, 1), (pad - 1, 0, pad - 1, 0),
                                       (0, -pad, 0, -pad), (0, pad - 2, 1, pad - 1),
                                       (-pad, -pad, -pad, -pad), (pad - 1, pad, pad, pad)):
                got = box_sum_slices(ext, pad, w, h, step, dx0, dy0, dx1, dy1)
                want = box_sum_grid(ii.padded, w, h, X + dx0, Y + dy0, X + dx1, Y + dy1)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_box_sum_slices_outside_boxes_are_exact_zero():
    # large table values, so the four terms of an empty box would not cancel
    ii = integral_image(Image(pixels=np.full((9, 11), 0.7)))
    ext = edge_extended(ii, 8)
    right = box_sum_slices(ext, 8, 11, 9, 1, 3, -2, 8, 2)   # x + 3 .. x + 8
    assert np.array_equal(right[:, 8:], np.zeros((9, 3)))
    assert not np.signbit(right).any()
    below = box_sum_slices(ext, 8, 11, 9, 2, -1, 5, 1, 7)   # y + 5 .. y + 7
    assert np.array_equal(below[2:, :], np.zeros((3, 6)))


def test_box_sum_slices_rejects_offsets_beyond_pad():
    ii = integral_image(Image(pixels=np.ones((5, 5))))
    ext = edge_extended(ii, 3)
    box_sum_slices(ext, 3, 5, 5, 1, -3, -3, 3, 3)
    for offsets in ((-4, 0, 0, 0), (0, -4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)):
        with pytest.raises(ValueError):
            box_sum_slices(ext, 3, 5, 5, 1, *offsets)


def test_gaussian_kernel_properties():
    k = gaussian_kernel(1.0)
    assert len(k) == 7  # radius ceil(3 sigma)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1])
    assert k.argmax() == 3


def test_smooth_impulse_center_value():
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = gaussian_smooth(Image(pixels=img), sigma=1.0)
    # separable correlation of the impulse: center tap squared
    assert out.pixels[4, 4] == pytest.approx(0.15924112569070245, rel=1e-12)
    assert out.pixels.sum() == pytest.approx(1.0, rel=1e-9)


def test_smooth_constant_is_identity():
    img = Image(pixels=np.full((8, 8), 0.375))
    out = gaussian_smooth(img, sigma=2.0)
    assert np.array_equal(out.pixels, img.pixels)


def test_smooth_sigma_zero_is_identity():
    rng = np.random.RandomState(2)
    img = Image(pixels=rng.random_sample((6, 6)))
    out = gaussian_smooth(img, sigma=0.0)
    assert np.array_equal(out.pixels, img.pixels)


def test_smooth_stays_in_input_range():
    rng = np.random.RandomState(3)
    img = Image(pixels=rng.random_sample((12, 12)))
    out = gaussian_smooth(img, sigma=1.5)
    assert out.pixels.min() >= img.pixels.min() - 1e-15
    assert out.pixels.max() <= img.pixels.max() + 1e-15


# below about 1e-154 gaussian_kernel's 2 * sigma * sigma overflows the
# divide, and below about 1e-162 it underflows to 0 and the taps are NaN,
# which no summation order can agree on
@pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
@settings(max_examples=200)
@given(h=st.integers(3, 40), w=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(0.0, 8.0, exclude_min=True))
def test_smooth_equals_scipy_correlate1d_bitwise(h, w, seed, sigma):
    ndimage = pytest.importorskip("scipy.ndimage")
    kernel = gaussian_kernel(sigma)
    assume(np.isfinite(kernel).all())
    px = np.random.default_rng(seed).random((h, w))
    ref = ndimage.correlate1d(px, kernel, axis=1, mode="nearest")
    ref = ndimage.correlate1d(ref, kernel, axis=0, mode="nearest")
    np.clip(ref, px.min(), px.max(), out=ref)
    out = gaussian_smooth(Image(pixels=px), sigma).pixels
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_smooth_names_a_sigma_too_small_for_finite_taps():
    img = Image(pixels=np.random.default_rng(5).random((5, 5)))
    for smooth in (lambda: gaussian_smooth(img, 1e-170),
                   lambda: external_energy_map(img, 1e-170)):
        with pytest.raises(ValueError, match="sigma 1e-170 is too small"):
            smooth()
    # taps still finite: the kernel is the identity [0, 1, 0]
    assert np.array_equal(gaussian_smooth(img, 1e-158).pixels, img.pixels)


def test_import_loads_no_scipy():
    code = ("import sys, snaketrack, snaketrack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_gradient_of_ramp():
    # ramp 0..1 over 9 columns: interior slope 1/8, replicated edges half that
    img = Image(pixels=np.tile(np.linspace(0.0, 1.0, 9), (5, 1)))
    g = gradient_magnitude(img)
    assert g.kind == GRADIENT_MAGNITUDE
    assert np.allclose(g.values[:, 1:-1], 1.0 / 8.0)
    assert np.allclose(g.values[:, 0], 1.0 / 16.0)
    assert np.allclose(g.values[:, -1], 1.0 / 16.0)


def test_gradient_zero_iff_constant():
    g = gradient_magnitude(Image(pixels=np.full((5, 5), 0.7)))
    assert np.all(g.values == 0.0)
    img = np.full((5, 5), 0.5)
    img[2, 2] = 0.6
    g2 = gradient_magnitude(Image(pixels=img))
    assert g2.values.max() > 0.0


def test_external_energy_range_and_peak():
    rng = np.random.RandomState(4)
    img = Image(pixels=rng.random_sample((16, 16)))
    field = external_energy_map(img, 1.0)
    assert field.kind == EXTERNAL_ENERGY
    assert field.values.min() == -1.0
    assert field.values.max() <= 0.0
    assert field.values.shape == (16, 16)


def test_external_energy_flat_image_is_zero():
    field = external_energy_map(Image(pixels=np.full((8, 8), 0.5)), 1.0)
    assert np.all(field.values == 0.0)


def test_smoothing_params_validation():
    img = Image(pixels=np.full((8, 8), 0.5))
    with pytest.raises(ValueError, match="sigma"):
        external_energy_map(img, -1.0)
