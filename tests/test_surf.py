import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snaketrack import surf, synth
from snaketrack.errors import InitializationError
from snaketrack.image import Image, box_sum_grid, edge_extended, integral_image
from snaketrack.surf import (
    BASE_FILTER,
    BASE_SCALE,
    LONE_MATCH_LIMIT,
    ORIENTATION_WINDOW,
    TWO_PI,
    DetectorParams,
    KeyPoint,
    Match,
    copy_keypoint,
    describe_keypoints,
    detect_keypoints,
    format_keypoint,
    match_descriptors,
    select_extremity_points,
)


def gaussian_blob(size, cx, cy, sigma=4.0, invert=False):
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    blob = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    if invert:
        blob = 1.0 - blob
    return Image(pixels=blob)


def mkkp(x, y, scale=2.0, response=1.0, sign=1):
    return KeyPoint(x=float(x), y=float(y), scale=scale, response=response,
                    laplacian_sign=sign)


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(hessian_threshold=0.0)
    with pytest.raises(ValueError):
        DetectorParams(octaves=0)
    with pytest.raises(ValueError):
        DetectorParams(init_step=0)
    with pytest.raises(ValueError):
        DetectorParams(ratio=0.0)
    with pytest.raises(ValueError):
        DetectorParams(ratio=1.2)
    DetectorParams(ratio=1.0)  # inclusive upper end
    for name in ("hessian_threshold", "ratio"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                DetectorParams(**{name: value})


def test_constant_image_has_no_keypoints():
    ii = integral_image(Image(pixels=np.full((64, 64), 0.5)))
    assert detect_keypoints(ii, DetectorParams()) == []


def test_bright_blob_single_keypoint():
    ii = integral_image(gaussian_blob(64, 32.0, 32.0))
    kps = detect_keypoints(ii, DetectorParams(hessian_threshold=1e-3, octaves=1))
    assert len(kps) == 1
    kp = kps[0]
    assert math.hypot(kp.x - 32.0, kp.y - 32.0) < 2.0
    assert kp.laplacian_sign == 1
    assert kp.response >= 1e-3
    assert kp.scale > 0.0


def test_dark_blob_flips_sign_keeps_response():
    params = DetectorParams(hessian_threshold=1e-3, octaves=1)
    bright = detect_keypoints(integral_image(gaussian_blob(64, 32.0, 32.0)), params)
    dark = detect_keypoints(integral_image(gaussian_blob(64, 32.0, 32.0, invert=True)), params)
    assert len(bright) == len(dark) == 1
    assert dark[0].laplacian_sign == -1
    assert dark[0].response == pytest.approx(bright[0].response, rel=1e-9)
    assert dark[0].x == pytest.approx(bright[0].x, abs=1e-6)
    assert dark[0].y == pytest.approx(bright[0].y, abs=1e-6)


def test_blob_translation_moves_keypoint():
    params = DetectorParams(hessian_threshold=1e-3, octaves=1)
    base = detect_keypoints(integral_image(gaussian_blob(64, 32.0, 32.0)), params)
    moved = detect_keypoints(integral_image(gaussian_blob(64, 37.0, 35.0)), params)
    assert len(moved) == 1
    assert abs(moved[0].x - (base[0].x + 5.0)) <= 1.0
    assert abs(moved[0].y - (base[0].y + 3.0)) <= 1.0


def test_keypoints_sorted_and_above_threshold():
    rng = np.random.RandomState(10)
    ys, xs = np.mgrid[0:96, 0:96].astype(np.float64)
    img = np.zeros((96, 96))
    for _ in range(6):
        cx, cy = rng.uniform(20, 76, 2)
        img += rng.uniform(0.3, 1.0) * np.exp(
            -((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * rng.uniform(4, 25)))
    params = DetectorParams(hessian_threshold=1e-4)
    kps = detect_keypoints(integral_image(Image(pixels=np.clip(img, 0, 1))), params)
    assert kps
    for kp in kps:
        assert kp.response >= params.hessian_threshold
        assert kp.laplacian_sign in (-1, 1)
        assert 0 <= kp.x < 96 and 0 <= kp.y < 96
    keys = [(-kp.response, kp.y, kp.x) for kp in kps]
    assert keys == sorted(keys)


def test_detection_is_deterministic():
    img = gaussian_blob(64, 30.0, 28.0)
    a = detect_keypoints(integral_image(img), DetectorParams())
    b = detect_keypoints(integral_image(img), DetectorParams())
    assert [(k.x, k.y, k.scale, k.response, k.laplacian_sign) for k in a] == \
           [(k.x, k.y, k.scale, k.response, k.laplacian_sign) for k in b]


def gather_layer(ii, size, step):
    """Reference Hessian layer: every box gathered through box_sum_grid."""
    w, h = ii.width, ii.height
    X, Y = np.meshgrid(np.arange(0, w, step), np.arange(0, h, step))
    lobe, border, inv_area = size // 3, (size - 1) // 2, 1.0 / float(size * size)
    half = lobe // 2

    def boxes(dx0, dy0, dx1, dy1):
        return box_sum_grid(ii.padded, w, h, X + dx0, Y + dy0, X + dx1, Y + dy1)

    dxx = (3.0 * boxes(-half, -(lobe - 1), -half + lobe - 1, lobe - 1)
           - boxes(-border, -(lobe - 1), border, lobe - 1)) * inv_area
    dyy = (3.0 * boxes(-(lobe - 1), -half, lobe - 1, -half + lobe - 1)
           - boxes(-(lobe - 1), -border, lobe - 1, border)) * inv_area
    dxy = (boxes(-lobe, -lobe, -1, -1) + boxes(1, 1, lobe, lobe)
           - boxes(1, -lobe, lobe, -1) - boxes(-lobe, 1, -1, lobe)) * inv_area
    return dxx * dyy - (surf.DXY_WEIGHT * surf.DXY_WEIGHT) * dxy * dxy, dxx + dyy


# non-square and smaller than octave 4's largest filter (195), so every
# filter size from some octave on overhangs the image on all sides
ENGINE_SHAPES = ((50, 77), (61, 34))


@pytest.mark.parametrize("shape", ENGINE_SHAPES)
def test_dense_layers_equal_gather_bitwise(shape):
    ii = integral_image(Image(pixels=np.random.RandomState(3).random_sample(shape)))
    sizes = sorted({size for octave in range(1, 5) for size in surf._layer_sizes(octave)})
    pad = (sizes[-1] - 1) // 2
    ext = edge_extended(ii, pad)
    for size in sizes:
        for step in (1, 2, 4):
            det, trace = surf._hessian_layer(ext, pad, ii.width, ii.height, size, step)
            want_det, want_trace = gather_layer(ii, size, step)
            assert np.array_equal(det, want_det), (size, step)
            assert np.array_equal(trace, want_trace), (size, step)


@pytest.mark.parametrize("shape", ENGINE_SHAPES)
def test_reused_layer_equals_recomputed(shape):
    # octave o + 1 takes its first two layers from octave o's 2nd and 4th
    ii = integral_image(Image(pixels=np.random.RandomState(4).random_sample(shape)))
    pad = (surf._layer_sizes(4)[-1] - 1) // 2
    ext = edge_extended(ii, pad)
    for octave in range(1, 4):
        sizes, upper = surf._layer_sizes(octave), surf._layer_sizes(octave + 1)
        for step in (1, 2):
            for lower_size, upper_size in ((sizes[1], upper[0]), (sizes[3], upper[1])):
                assert lower_size == upper_size
                fine = surf._hessian_layer(ext, pad, ii.width, ii.height, lower_size, step)
                coarse = surf._hessian_layer(ext, pad, ii.width, ii.height, upper_size, 2 * step)
                for reused, recomputed in zip(fine, coarse):
                    assert np.array_equal(reused[::2, ::2], recomputed)


def dense_strict_maxima(resp, threshold):
    """The dense 26-neighbor test over both middle layers, as one mask."""
    ny, nx = resp.shape[1:]
    center = resp[1:3, 1:-1, 1:-1]
    mask = center > threshold
    for ds, dy, dx in itertools.product((-1, 0, 1), repeat=3):
        if ds or dy or dx:
            mask &= center > resp[1 + ds:3 + ds, 1 + dy:ny - 1 + dy, 1 + dx:nx - 1 + dx]
    return tuple(axis + 1 for axis in np.nonzero(mask))


# few distinct values, so ties, plateaus and samples equal to the threshold
# are common; NaN compares false both ways
MAXIMA_PALETTE = (-1.0, 0.0, -0.0, 0.5, 1.0, 2.0, math.nan)


@st.composite
def response_stacks(draw):
    ny, nx = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    resp = np.full((4, ny, nx), draw(st.sampled_from(MAXIMA_PALETTE)))
    cells = st.tuples(st.integers(0, 3), st.integers(0, ny - 1), st.integers(0, nx - 1),
                      st.sampled_from(MAXIMA_PALETTE))
    for s, y, x, value in draw(st.lists(cells, max_size=4 * ny * nx)):
        resp[s, y, x] = value
    return resp


def peaks(*cells):
    resp = np.zeros((4, 5, 6))
    for s, y, x, value in cells:
        resp[s, y, x] = value
    return resp


@settings(max_examples=300)
@given(response_stacks(), st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
@example(peaks((1, 2, 2, 1.0), (2, 2, 4, 0.5)), 0.5)      # a peak equal to the threshold
@example(peaks((1, 2, 2, 1.0), (1, 2, 3, 1.0), (2, 3, 4, 2.0)), 0.5)  # a plateau
# maxima in both layers, so their order across layers shows
@example(peaks((1, 1, 1, 1.0), (2, 3, 4, 2.0), (1, 3, 2, 1.0), (2, 1, 3, 1.0)), 0.5)
def test_strict_maxima_equals_dense_test(resp, threshold):
    got = surf._strict_maxima(resp, threshold)
    want = dense_strict_maxima(resp, threshold)
    assert len(got) == 3
    for got_axis, want_axis in zip(got, want):
        assert np.array_equal(got_axis, want_axis)


def test_octaves_that_do_not_fit_leave_table_and_keypoints_alone(monkeypatch):
    # on 96x96 octave 4 (largest filter 195) is the last that runs: octave
    # 5's smallest filter is 99; a pad sized from octaves=10 would be 6145
    ii = integral_image(Image(pixels=synth.square_image(96, 96)))
    tables = []

    def recording(ii_arg, pad):
        assert pad <= 97, f"table padded for a filter that never runs: pad {pad}"
        table = edge_extended(ii_arg, pad)
        tables.append(table.shape)
        return table

    monkeypatch.setattr(surf, "edge_extended", recording)
    key = [(k.x, k.y, k.scale, k.response, k.laplacian_sign) for k in
           detect_keypoints(ii, DetectorParams(octaves=4))]
    wide = [(k.x, k.y, k.scale, k.response, k.laplacian_sign) for k in
            detect_keypoints(ii, DetectorParams(octaves=10))]
    assert wide == key and key
    assert tables == [(96 + 1 + 2 * 97,) * 2] * 2


def singular_cube():
    # a strict maximum whose Hessian has dss = dyy = -2 and dsy = 2
    cube = np.full((3, 3, 3), -3.0)
    cube[1, 1, 1] = 0.0
    for s, y, x in ((0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)):
        cube[s, y, x] = -1.0
    cube[2, 2, 1] = cube[0, 0, 1] = -0.5
    cube[2, 0, 1] = cube[0, 2, 1] = -4.5
    return cube


def regular_cube():
    # a strict maximum pulled a sixth of a sample towards +x
    cube = np.full((3, 3, 3), -3.0)
    cube[1, 1, 1] = 0.0
    for s, y, x in ((0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0)):
        cube[s, y, x] = -1.0
    cube[1, 1, 2] = -0.5
    return cube


def test_singular_hessian_keeps_grid_position_and_others_refine(monkeypatch):
    hess = singular_cube()
    dss = hess[2, 1, 1] - 2.0 * hess[1, 1, 1] + hess[0, 1, 1]
    dsy = 0.25 * (hess[2, 2, 1] - hess[2, 0, 1] - hess[0, 2, 1] + hess[0, 0, 1])
    assert (dss, dsy) == (-2.0, 2.0)
    # 4 layers of a 12x12 grid, zero (below threshold) except the two cubes:
    # the singular one centred on layer 1 at (y, x) = (3, 3), the regular one
    # on layer 2 at (8, 7)
    det = np.zeros((4, 12, 12))
    det[0:3, 2:5, 2:5] = 1.0 + singular_cube()
    det[1:4, 7:10, 6:9] = 1.0 + regular_cube()
    sizes = surf._layer_sizes(1)
    monkeypatch.setattr(surf, "_hessian_layer",
                        lambda ext, pad, w, h, size, step:
                        (det[sizes.index(size)], np.ones((12, 12))))
    ii = integral_image(Image(pixels=np.zeros((12, 12))))
    kps = detect_keypoints(ii, DetectorParams(octaves=1))
    assert [(kp.y, kp.x, kp.response) for kp in kps] == [(3.0, 3.0, 1.0),
                                                         (8.0, 7.0 + 1.0 / 6.0, 1.0)]
    assert kps[0].scale == BASE_SCALE * sizes[1] / BASE_FILTER
    assert kps[1].scale == BASE_SCALE * sizes[2] / BASE_FILTER


def refine_one(cube):
    """Reference: one cube's offset solved alone, as a per-maximum loop does."""
    grad = 0.5 * np.array([cube[2, 1, 1] - cube[0, 1, 1], cube[1, 2, 1] - cube[1, 0, 1],
                           cube[1, 1, 2] - cube[1, 1, 0]])
    center = cube[1, 1, 1]
    dss = cube[2, 1, 1] - 2.0 * center + cube[0, 1, 1]
    dyy = cube[1, 2, 1] - 2.0 * center + cube[1, 0, 1]
    dxx = cube[1, 1, 2] - 2.0 * center + cube[1, 1, 0]
    dsy = 0.25 * (cube[2, 2, 1] - cube[2, 0, 1] - cube[0, 2, 1] + cube[0, 0, 1])
    dsx = 0.25 * (cube[2, 1, 2] - cube[2, 1, 0] - cube[0, 1, 2] + cube[0, 1, 0])
    dyx = 0.25 * (cube[1, 2, 2] - cube[1, 2, 0] - cube[1, 0, 2] + cube[1, 0, 0])
    hess = np.array([[dss, dsy, dsx], [dsy, dyy, dyx], [dsx, dyx, dxx]])
    try:
        offset = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return np.zeros(3)
    return np.zeros(3) if np.abs(offset).max() > 1.0 else offset


@pytest.mark.parametrize("singular", [False, True])
def test_batched_refine_equals_per_cube_solve(singular):
    rng = np.random.RandomState(13)
    resp = rng.standard_normal((4, 16, 16))
    if singular:
        resp[0:3, 4:7, 9:12] = singular_cube()
    s, y, x = (a.ravel() for a in np.mgrid[1:3, 1:15, 1:15])
    got = surf._refine(resp, s, y, x)
    want = np.array([refine_one(resp[k - 1:k + 2, j - 1:j + 2, i - 1:i + 2])
                     for k, j, i in zip(s, y, x)])
    assert np.array_equal(got, want)
    refined = np.any(got != 0.0, axis=1)
    assert 0 < refined.sum() < len(s)
    if singular:
        (at,) = np.flatnonzero((s == 1) & (y == 5) & (x == 10))
        assert not refined[at]


def test_orientation_follows_gradient():
    # intensity increasing along +x: dominant haar response points at angle 0
    ramp = Image(pixels=np.tile(np.linspace(0.0, 1.0, 64), (64, 1)))
    kp = mkkp(32.0, 32.0)
    describe_keypoints(integral_image(ramp), [kp])
    theta = kp.orientation
    assert abs(theta) < math.pi / 36 or abs(theta - 2 * math.pi) < math.pi / 36
    assert not kp.orientation_fallback

    rampy = Image(pixels=np.tile(np.linspace(0.0, 1.0, 64).reshape(-1, 1), (1, 64)))
    kpy = mkkp(32.0, 32.0)
    describe_keypoints(integral_image(rampy), [kpy])
    assert kpy.orientation == pytest.approx(math.pi / 2, abs=math.pi / 36)


def test_orientation_in_range():
    rng = np.random.RandomState(11)
    ii = integral_image(Image(pixels=rng.random_sample((64, 64))))
    for x, y in [(20, 20), (32, 40), (45, 25)]:
        kp = mkkp(x, y)
        describe_keypoints(ii, [kp])
        assert 0.0 <= kp.orientation < 2.0 * math.pi


def test_descriptor_unit_norm():
    img = gaussian_blob(64, 32.0, 32.0)
    ii = integral_image(img)
    kps = detect_keypoints(ii, DetectorParams(hessian_threshold=1e-3, octaves=1))
    describe_keypoints(ii, kps)
    d = kps[0].descriptor
    assert d.shape == (64,)
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)


def test_descriptor_constant_patch_is_zero():
    ii = integral_image(Image(pixels=np.full((64, 64), 0.5)))
    kp = mkkp(32.0, 32.0)
    describe_keypoints(ii, [kp])
    assert np.all(kp.descriptor == 0.0)


def test_descriptor_deterministic():
    ii = integral_image(gaussian_blob(64, 30.0, 34.0))
    k1, k2 = mkkp(30.0, 34.0), mkkp(30.0, 34.0)
    describe_keypoints(ii, [k1])
    describe_keypoints(ii, [k2])
    assert np.array_equal(k1.descriptor, k2.descriptor)
    assert k1.orientation == k2.orientation



def test_haar_xy_equals_box_sum_grid_differences():
    # centres inside, on and far outside every edge: boxes that overhang the
    # image or miss it entirely, whose four terms need not cancel exactly
    rng = np.random.RandomState(15)
    ii = integral_image(Image(pixels=rng.random_sample((23, 31))))
    w, h, p = ii.width, ii.height, ii.padded
    cx = rng.randint(-12, w + 12, size=(60, 50))
    cy = rng.randint(-12, h + 12, size=(60, 50))
    half = rng.randint(1, 9, size=(60, 1))
    hx, hy = surf._haar_xy(p, w, h, cx, cy, half)
    right = box_sum_grid(p, w, h, cx, cy - half, cx + half - 1, cy + half - 1)
    left = box_sum_grid(p, w, h, cx - half, cy - half, cx - 1, cy + half - 1)
    lower = box_sum_grid(p, w, h, cx - half, cy, cx + half - 1, cy + half - 1)
    upper = box_sum_grid(p, w, h, cx - half, cy - half, cx + half - 1, cy - 1)
    assert np.array_equal(hx, right - left)
    assert np.array_equal(hy, lower - upper)


def test_describe_batch_equals_each_keypoint_alone():
    # more keypoints than one chunk, border ones falling back to orientation 0
    rng = np.random.RandomState(12)
    ii = integral_image(Image(pixels=rng.random_sample((70, 90))))
    n = surf.DESCRIBE_CHUNK + 45
    batch = [mkkp(x, y, scale) for x, y, scale in
             zip(rng.uniform(0, 89, n), rng.uniform(0, 69, n), rng.uniform(1.2, 5.0, n))]
    alone = [copy_keypoint(kp) for kp in batch]
    assert describe_keypoints(ii, batch) is batch
    for kp in alone:
        describe_keypoints(ii, [kp])
    flags = [kp.orientation_fallback for kp in batch]
    assert 0 < sum(flags) < n
    for got, want in zip(batch, alone):
        assert got.orientation_fallback == want.orientation_fallback
        assert got.orientation == want.orientation
        assert np.array_equal(got.descriptor, want.descriptor)


def test_describe_empty_list():
    ii = integral_image(gaussian_blob(32, 16.0, 16.0))
    assert describe_keypoints(ii, []) == []
    # no keypoint's orientation disk fits: the orientation batch is empty
    border = [mkkp(1.0, 1.0), mkkp(30.0, 16.0, scale=3.0)]
    assert describe_keypoints(ii, border) is border
    for kp in border:
        assert kp.orientation == 0.0 and kp.orientation_fallback
        assert kp.descriptor.shape == (64,)

# every window's start and end (the end taken mod 2*pi), one ULP either side
# of each, and both ends of [0, 2*pi]
_EDGES = np.concatenate([surf._ORI_STARTS, np.mod(surf._ORI_STARTS + ORIENTATION_WINDOW, TWO_PI)])
WINDOW_EDGES = np.clip(np.concatenate([_EDGES, np.nextafter(_EDGES, -np.inf),
                                       np.nextafter(_EDGES, np.inf), [0.0, TWO_PI]]),
                       0.0, TWO_PI)

# arctan2 of a tiny negative y and a positive x is a tiny negative angle,
# which np.mod rounds up to exactly 2*pi; a y of -0.0 gives +0.0
COORDINATES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, -5e-324, 5e-324, -1e-300, -1e-17, 1.0, -1.0]))


def arctan2_angles(pairs):
    x, y = np.array(pairs).T
    return np.mod(np.arctan2(y, x), TWO_PI)


@settings(max_examples=200)
@given(st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=40).map(arctan2_angles))
@example(WINDOW_EDGES)
def test_orientation_window_mask_equals_mod(angles):
    angles = angles.reshape(1, -1)
    want = np.mod(angles[:, None, :] - surf._ORI_STARTS[:, None], TWO_PI) < ORIENTATION_WINDOW
    assert np.array_equal(surf._orientation_windows(angles), want)


def unit_desc(hot, value=1.0):
    d = np.zeros(64)
    d[hot] = value
    return d


def test_match_identity():
    kps = [mkkp(i, i) for i in range(4)]
    for i, kp in enumerate(kps):
        kp.descriptor = unit_desc(i)
    matches = match_descriptors(kps, kps, ratio=0.7)
    assert len(matches) == 4
    for m in matches:
        assert m.index_a == m.index_b
        assert m.distance == 0.0


def test_match_empty_sides():
    kp = mkkp(0, 0)
    kp.descriptor = unit_desc(0)
    assert match_descriptors([], [kp]) == []
    assert match_descriptors([kp], []) == []


def test_match_equidistant_candidates_rejected():
    a = mkkp(0, 0)
    a.descriptor = unit_desc(0)
    b1, b2 = mkkp(5, 5), mkkp(9, 9)
    b1.descriptor = unit_desc(1)
    b2.descriptor = unit_desc(2)
    # d1 == d2 so the ratio test fails regardless of ratio < 1
    assert match_descriptors([a], [b1, b2], ratio=0.99) == []


def test_match_lone_candidate_distance_gate():
    a = mkkp(0, 0)
    a.descriptor = unit_desc(0)
    close = mkkp(5, 5)
    close.descriptor = unit_desc(0)
    close.descriptor[1] = 0.1
    far = mkkp(5, 5)
    far.descriptor = unit_desc(1)
    assert len(match_descriptors([a], [close])) == 1
    assert match_descriptors([a], [far]) == []  # distance sqrt(2) >= 0.5


@pytest.mark.parametrize("ratio", [math.nan, 0.0, 1.5, -math.inf])
def test_match_rejects_ratio_outside_unit_interval(ratio):
    a = mkkp(0, 0)
    a.descriptor = unit_desc(0)
    b1, b2 = mkkp(5, 5), mkkp(9, 9)
    b1.descriptor = unit_desc(1)
    b2.descriptor = unit_desc(2)
    with pytest.raises(ValueError, match=r"^ratio must lie in \(0, 1\]$"):
        match_descriptors([a], [b1, b2], ratio)
    # checked before anything else, even a keypoint without a descriptor
    with pytest.raises(ValueError, match=r"^ratio must lie in \(0, 1\]$"):
        match_descriptors([mkkp(0, 0)], [], ratio)


def test_match_ratio_one_still_matches():
    a = mkkp(0, 0)
    a.descriptor = unit_desc(0)
    near, far = mkkp(5, 5), mkkp(9, 9)
    near.descriptor = unit_desc(0)
    near.descriptor[1] = 0.1
    far.descriptor = unit_desc(1)
    matches = match_descriptors([a], [near, far], ratio=1.0)
    assert [(m.index_a, m.index_b) for m in matches] == [(0, 0)]


def test_match_default_ratio_is_the_detector_default():
    default = inspect.signature(match_descriptors).parameters["ratio"].default
    assert default == DetectorParams().ratio


def test_match_sign_gate():
    a = mkkp(0, 0)
    a.descriptor = unit_desc(0)
    b = mkkp(1, 1, sign=-1)
    b.descriptor = unit_desc(0)
    assert match_descriptors([a], [b]) == []


def test_match_collision_keeps_smaller_distance():
    a1, a2 = mkkp(0, 0), mkkp(1, 1)
    a1.descriptor = unit_desc(0)
    a2.descriptor = unit_desc(0, 0.9)
    target = mkkp(3, 3)
    target.descriptor = unit_desc(0)
    decoy = mkkp(9, 9)
    decoy.descriptor = np.ones(64) / 8.0
    matches = match_descriptors([a1, a2], [target, decoy], ratio=0.99)
    assert len(matches) == 1
    assert (matches[0].index_a, matches[0].index_b) == (0, 0)


@pytest.mark.parametrize("side", ["a", "b"])
def test_match_missing_descriptor_names_side_and_index(side):
    kps = [mkkp(0, 0), mkkp(1, 1)]
    kps[0].descriptor = unit_desc(0)
    other = [mkkp(2, 2)]
    other[0].descriptor = unit_desc(0)
    a, b = (kps, other) if side == "a" else (other, kps)
    with pytest.raises(ValueError, match=f"^keypoint 1 of {side} has no descriptor"):
        match_descriptors(a, b)


def loop_match(a, b, ratio):
    """Reference: the per-keypoint loop the matrix matcher replaced."""
    if not a or not b:
        return []
    descs_b = np.stack([kp.descriptor for kp in b])
    signs_b = np.array([kp.laplacian_sign for kp in b])
    claims = {}
    for i, kp in enumerate(a):
        idx = np.nonzero(signs_b == kp.laplacian_sign)[0]
        if idx.size == 0:
            continue
        diff = descs_b[idx] - kp.descriptor
        dists = np.sqrt((diff * diff).sum(axis=1))
        order = np.argsort(dists, kind="stable")
        j1 = int(idx[order[0]])
        d1 = float(dists[order[0]])
        if idx.size == 1:
            if d1 >= LONE_MATCH_LIMIT:
                continue
        else:
            d2 = float(dists[order[1]])
            if d2 <= 0.0 or d1 / d2 >= ratio:
                continue
        held = claims.get(j1)
        if held is None or (d1, i) < held:
            claims[j1] = (d1, i)
    matches = [Match(i, j, d) for j, (d, i) in claims.items()]
    matches.sort(key=lambda m: (m.distance, m.index_a, m.index_b))
    return matches


# few distinct descriptors, so duplicates, exact ties and lone candidates
# closer than LONE_MATCH_LIMIT are common
_PALETTE = [unit_desc(0), unit_desc(1), unit_desc(0, 0.9), unit_desc(0, 0.7),
            unit_desc(2, 0.3), np.zeros(64), np.ones(64) / 8.0,
            np.random.RandomState(14).random_sample(64)]
MATCH_KEYPOINTS = st.lists(st.tuples(st.integers(0, len(_PALETTE) - 1), st.sampled_from([1, -1])),
                           max_size=7)


def palette_keypoints(drawn):
    kps = []
    for k, (colour, sign) in enumerate(drawn):
        kp = mkkp(k, k, sign=sign)
        kp.descriptor = _PALETTE[colour]
        kps.append(kp)
    return kps


# ratios up to 1, the largest the matcher accepts, where tied nearest
# candidates are rejected; blocks of 1 row up to all rows of a group at once
@settings(max_examples=300)
@given(MATCH_KEYPOINTS, MATCH_KEYPOINTS, st.sampled_from([0.5, 0.7, 0.99, 1.0]),
       st.sampled_from([surf.MATCH_BLOCK_BYTES, 1, 1024, 2048, 4096]))
@example([(0, 1)], [(0, 1)], 0.7, surf.MATCH_BLOCK_BYTES)        # 1x1
@example([(0, 1)], [(1, 1), (2, 1), (0, 1)], 0.7, 1)             # 1xn
@example([(0, 1), (2, 1), (0, -1)], [(2, 1)], 0.7, 1)            # nx1, lone
@example([(0, 1), (2, 1), (3, 1)], [(0, 1), (1, 1)], 0.99, 1)    # three claim b[0]
@example([(0, 1)], [(1, 1), (4, 1)], 1.0, 1)                     # tied d1 == d2
@example([(0, 1)], [(0, 1), (1, 1), (0, 1)], 0.7, 1)             # d2 == 0 behind a far one
@example([(0, 1)] * 3, [(0, 1)], 0.7, 1024)                      # rows in blocks of 2
@example([(0, 1), (0, 1)], [(0, -1), (0, -1)], 0.7, 1)           # no common sign
def test_match_equals_per_keypoint_loop(drawn_a, drawn_b, ratio, block_bytes):
    a, b = palette_keypoints(drawn_a), palette_keypoints(drawn_b)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surf, "MATCH_BLOCK_BYTES", block_bytes)
        assert match_descriptors(a, b, ratio) == loop_match(a, b, ratio)


def test_extremity_bijection_when_enough_points():
    near_anchors = [(1, 1), (31, 2), (62, 1), (61, 32),
                    (62, 62), (32, 61), (1, 62), (2, 31)]
    kps = [mkkp(x, y) for x, y in near_anchors]
    shuffled = [kps[i] for i in (5, 0, 3, 7, 1, 6, 2, 4)]
    sel = select_extremity_points(shuffled, 64, 64)
    assert [(p.x, p.y) for p in sel.points] == [(float(x), float(y))
                                                for x, y in near_anchors]
    assert not any(sel.reused)


def test_extremity_reuses_when_scarce():
    kps = [mkkp(10, 10), mkkp(50, 12), mkkp(30, 55)]
    sel = select_extremity_points(kps, 64, 64)
    assert len(sel.points) == 8
    assert sum(sel.reused) == 5
    assert {id(p) for p in sel.points} <= {id(k) for k in kps}


def test_extremity_empty_is_error():
    with pytest.raises(InitializationError) as exc:
        select_extremity_points([], 64, 64)
    assert "hessian_threshold" in str(exc.value)


def test_format_keypoint_field_count():
    kp = mkkp(1.5, 2.5)
    kp.orientation = 0.5
    kp.descriptor = np.arange(64) / 63.0
    fields = format_keypoint(kp).split()
    assert len(fields) == 70
    assert fields[0] == "1.5" and fields[1] == "2.5"
    assert fields[4] == "1"
    # all fields parse back as floats
    assert all(isinstance(float(f), float) for f in fields)


def test_format_requires_descriptor():
    with pytest.raises(ValueError):
        format_keypoint(mkkp(0, 0))


def test_copy_keypoint_is_independent():
    kp = mkkp(3.0, 4.0)
    kp.descriptor = unit_desc(7)
    dup = copy_keypoint(kp)
    dup.x = 99.0
    assert kp.x == 3.0
    assert dup.descriptor is kp.descriptor  # shared, treated read-only
