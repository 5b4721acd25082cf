"""Detector and descriptor output pinned to checked-in golden files.

`golden_keypoints.json` holds, per scene, every keypoint's
(x, y, scale, response, laplacian_sign) as JSON numbers, which round-trip
Python floats exactly; detection must match it bit for bit.
`golden_descriptors.json` holds, per scene and in the same keypoint order,
[orientation, orientation_fallback, 64 descriptor values]. The fallback
flags must match exactly and the floats within DESCRIBE_TOLERANCE, which
allows for a change of summation order only. Running this file records
every scene that a golden file lacks and leaves the recorded ones as they
are; re-record a scene, by deleting its entries first, only for a stated
change of detector or descriptor behaviour:

    PYTHONPATH=src python tests/test_golden_keypoints.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from snaketrack import synth
from snaketrack.image import Image, integral_image
from snaketrack.surf import DetectorParams, describe_keypoints, detect_keypoints

GOLDEN = Path(__file__).with_name("golden_keypoints.json")
GOLDEN_DESCRIPTORS = Path(__file__).with_name("golden_descriptors.json")
DESCRIBE_TOLERANCE = 1e-9


def _square96():
    # the acceptance tracking scene (criterion 6) at the tracker's octaves
    return Image(pixels=synth.square_image(96, 96)), DetectorParams(octaves=4)


def _blob_field(size):
    # criterion 5's 24 blobs, unshifted, on a size x size grid
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    rng = np.random.RandomState(7)
    img = np.zeros((size, size))
    for _ in range(24):
        cx, cy = rng.uniform(40, 152, 2)
        sg = rng.uniform(2, 5)
        amp = rng.uniform(0.4, 1.0)
        img += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sg * sg))
    return np.clip(img, 0.0, 1.0)


def _blobs192():
    # criterion 5's blob field at its threshold
    return Image(pixels=_blob_field(192)), DetectorParams(hessian_threshold=0.002)


def _noise77x50():
    # non-square, smaller than octave 3's largest filter (99), stride 2
    pixels = np.random.RandomState(2013).uniform(0.0, 1.0, (50, 77))
    return Image(pixels=pixels), DetectorParams(init_step=2)


def _disk128():
    # criterion 4's disk at default parameters: tied responses pin the
    # (y, x) order, and some refinements exceed one sample
    return Image(pixels=synth.disk_image(128, 128)), DetectorParams()


def _noise160x120():
    # both laplacian signs over four octaves
    pixels = np.random.RandomState(2013).uniform(0.0, 1.0, (120, 160))
    return Image(pixels=pixels), DetectorParams(octaves=4)


def _blobs384():
    # the keypoints workload's scale: full-size grids in all three default
    # octaves, where the strict-maximum test keeps the most candidates.
    # One bright or dark blob per cell of a 12 x 12 grid, jittered inside it,
    # on 0.5 grey
    size, grid = 384, 12
    rng = np.random.RandomState(384)
    cell = size / grid
    centres = (np.arange(grid) + 0.5) * cell
    cx, cy = (a.ravel() + rng.uniform(-0.35, 0.35, grid * grid) * cell
              for a in np.meshgrid(centres, centres))
    sigma = rng.uniform(2.5, 6.0, grid * grid)
    amp = rng.choice([-1.0, 1.0], grid * grid) * rng.uniform(0.25, 0.45, grid * grid)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((size, size), 0.5)
    for x, y, sg, a in zip(cx, cy, sigma, amp):
        img += a * np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2.0 * sg * sg))
    return Image(pixels=np.clip(img, 0.0, 1.0)), DetectorParams()


SCENES = {"square96": _square96, "blobs192": _blobs192, "noise77x50": _noise77x50,
          "disk128": _disk128, "noise160x120": _noise160x120, "blobs384": _blobs384}


def dump(name):
    img, params = SCENES[name]()
    kps = detect_keypoints(integral_image(img), params)
    return [[kp.x, kp.y, kp.scale, kp.response, kp.laplacian_sign] for kp in kps]


def dump_descriptors(name):
    img, params = SCENES[name]()
    ii = integral_image(img)
    kps = describe_keypoints(ii, detect_keypoints(ii, params))
    return [[kp.orientation, kp.orientation_fallback] + [float(v) for v in kp.descriptor]
            for kp in kps]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_keypoints_equal_golden_bitwise(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = dump(name)
    assert len(got) == len(golden)
    assert got == golden


@pytest.mark.parametrize("name", sorted(SCENES))
def test_descriptors_match_golden(name):
    golden = json.loads(GOLDEN_DESCRIPTORS.read_text())[name]
    got = dump_descriptors(name)
    assert len(got) == len(golden)
    assert [row[1] for row in got] == [row[1] for row in golden]
    got_values = np.array([[row[0]] + row[2:] for row in got])
    want_values = np.array([[row[0]] + row[2:] for row in golden])
    assert np.abs(got_values - want_values).max(initial=0.0) <= DESCRIBE_TOLERANCE


# Summed-area tables of img and img.T add the same pixels in different
# orders, so positions and scales of transposed keypoints agree only up to
# that rounding (at most 4e-11 px on these scenes).
TRANSPOSE_TOLERANCE = 1e-10


# square96 and disk128 are symmetric about the diagonal, and table rounding
# breaks exact mirror ties between their responses one way in img and the
# other in img.T: 1 and 2 dark-sign keypoints, among them square96's
# (15.77, 10.01), come back as their mirror images.
def assert_paired(kps, mapped):
    """Each keypoint has its own partner in `mapped`, rows (x, y, scale, sign)."""
    # the last column is the laplacian sign, so paired keypoints share it
    a = np.array([[kp.x, kp.y, kp.scale, kp.laplacian_sign] for kp in kps])
    b = np.array(mapped)
    assert a.shape == b.shape
    dist = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    nearest = dist.argmin(axis=1)
    assert sorted(nearest) == list(range(len(b)))
    assert dist[np.arange(len(a)), nearest].max() <= TRANSPOSE_TOLERANCE


@pytest.mark.parametrize("name", ["blobs192", "noise160x120", "noise77x50"])
def test_detection_commutes_with_transpose(name):
    img, params = SCENES[name]()
    kps = detect_keypoints(integral_image(img), params)
    flipped = detect_keypoints(integral_image(Image(pixels=img.pixels.T)), params)
    assert_paired(kps, [[kp.y, kp.x, kp.scale, kp.laplacian_sign] for kp in flipped])


# A flip maps column x to w - 1 - x (row y to h - 1 - y), which lands on
# every octave's sampling grid only when each stride divides w - 1 (h - 1).
# Each golden scene has an odd w - 1 or h - 1, so these scenes are sized
# for the flips: strides 1, 2, 4 at default parameters and 1 to 8 at
# octaves=4.
FLIP_SCENES = {
    "noise97x65": lambda: (np.random.RandomState(2013).uniform(0.0, 1.0, (65, 97)),
                           DetectorParams()),
    "noise161x121": lambda: (np.random.RandomState(2013).uniform(0.0, 1.0, (121, 161)),
                             DetectorParams(octaves=4)),
    "blobs193": lambda: (_blob_field(193), DetectorParams(hessian_threshold=0.002)),
}
# (flip columns, flip rows)
FLIPS = {"fliplr": (True, False), "flipud": (False, True), "rot180": (True, True)}


@pytest.mark.parametrize("flip", sorted(FLIPS))
@pytest.mark.parametrize("name", sorted(FLIP_SCENES))
def test_detection_commutes_with_flips(name, flip):
    pixels, params = FLIP_SCENES[name]()
    h, w = pixels.shape
    fx, fy = FLIPS[flip]
    kps = detect_keypoints(integral_image(Image(pixels=pixels)), params)
    flipped = pixels[::-1 if fy else 1, ::-1 if fx else 1]
    back = detect_keypoints(integral_image(Image(pixels=flipped)), params)
    assert_paired(kps, [[w - 1 - kp.x if fx else kp.x, h - 1 - kp.y if fy else kp.y,
                         kp.scale, kp.laplacian_sign] for kp in back])


if __name__ == "__main__":
    for path, writer in ((GOLDEN, dump), (GOLDEN_DESCRIPTORS, dump_descriptors)):
        recorded = json.loads(path.read_text()) if path.exists() else {}
        for name in SCENES:
            if name not in recorded:
                recorded[name] = writer(name)
        path.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
