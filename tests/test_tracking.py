import numpy as np
import pytest

from snaketrack.errors import TrackingLostError
from snaketrack.image import Image
from snaketrack.snake import ContourResult, SegmentationResult, SnakeParams
from snaketrack.surf import DetectorParams, KeyPoint
from snaketrack import tracking
from snaketrack.tracking import (
    SEARCH_RADIUS,
    TrackState,
    init_tracking,
    propagate_points,
    track_frame,
)
from snaketrack import synth

YS, XS = np.mgrid[0:128, 0:128].astype(np.float64)


def blob_scene(shift=(0, 0)):
    """A handful of gaussian blobs, rendered analytically at any shift."""
    img = np.zeros((128, 128))
    rng = np.random.RandomState(5)
    for _ in range(10):
        cx, cy = rng.uniform(40, 88, 2)
        sg = rng.uniform(2.5, 5.0)
        amp = rng.uniform(0.5, 1.0)
        img += amp * np.exp(-((XS - cx - shift[0]) ** 2
                              + (YS - cy - shift[1]) ** 2) / (2 * sg * sg))
    return Image(pixels=np.clip(img, 0.0, 1.0))


DETECTOR = DetectorParams(hessian_threshold=0.001)


def test_init_tracking_builds_state():
    state, result = init_tracking(blob_scene(), DETECTOR, SnakeParams())
    assert state.frame_index == 0
    assert len(state.tracked_points) == 8
    assert state.global_offset == (0.0, 0.0)
    assert result.converged
    assert result.contours
    for kp in state.tracked_points:
        assert kp.descriptor is not None


def test_propagate_static_scene_is_identity():
    scene = blob_scene()
    state, _ = init_tracking(scene, DETECTOR, SnakeParams())
    points, offset = propagate_points(state, scene, DETECTOR)
    assert offset == (0.0, 0.0)
    for old, new in zip(state.tracked_points, points):
        assert (new.x, new.y) == (old.x, old.y)
        assert new is not old  # copies, originals untouched


def test_propagate_translated_scene():
    state, _ = init_tracking(blob_scene(), DETECTOR, SnakeParams())
    points, offset = propagate_points(state, blob_scene((4, 0)), DETECTOR)
    assert offset == (4.0, 0.0)
    for old, new in zip(state.tracked_points, points):
        assert new.x - old.x == pytest.approx(4.0, abs=1.0)
        assert new.y - old.y == pytest.approx(0.0, abs=1.0)


def test_propagate_blank_scene_carries_points():
    state, _ = init_tracking(blob_scene(), DETECTOR, SnakeParams())
    blank = Image(pixels=np.zeros((128, 128)))
    points, offset = propagate_points(state, blank, DETECTOR)
    assert offset == (0.0, 0.0)
    assert [(p.x, p.y) for p in points] == \
        [(p.x, p.y) for p in state.tracked_points]


def test_static_square_is_a_fixed_point():
    frame = Image(pixels=synth.square_image(96, 96))
    detector = DetectorParams(octaves=4)
    snake = SnakeParams(sigma=2.0)
    state0, result0 = init_tracking(frame, detector, snake)
    state1, result1 = track_frame(state0, frame, detector, snake)
    assert state1.frame_index == 1
    assert state1.global_offset == (0.0, 0.0)
    assert [c.points for c in result1.contours] == \
        [c.points for c in result0.contours]


def test_track_blank_frame_flags_low_confidence():
    state0, _ = init_tracking(Image(pixels=synth.disk_image(128, 128)),
                              DetectorParams(), SnakeParams())
    blank = Image(pixels=np.zeros((128, 128)))
    state1, result1 = track_frame(state0, blank, DetectorParams(), SnakeParams())
    assert result1.low_confidence
    assert state1.global_offset == (0.0, 0.0)
    assert state1.frame_index == 1


def test_tracking_lost_when_contours_vanish():
    kp = KeyPoint(x=10.0, y=10.0, scale=2.0, response=1.0, laplacian_sign=1)
    kp.descriptor = np.zeros(64)
    prev = SegmentationResult(
        contours=(ContourResult(id=0, agent_ids=(0, 1, 2),
                                points=((10, 10), (20, 10), (15, 20))),),
        events=(), energy_history=(0.0,), iterations=1,
        converged=True, low_confidence=False)
    state = TrackState(frame_index=0, tracked_points=[kp] * 8, prev_result=prev)
    blank = Image(pixels=np.zeros((32, 32)))
    with pytest.raises(TrackingLostError):
        track_frame(state, blank, DetectorParams(), SnakeParams())


def test_frame_index_progression():
    frame = Image(pixels=synth.square_image(96, 96))
    detector = DetectorParams(octaves=4)
    snake = SnakeParams(sigma=2.0)
    state, _ = init_tracking(frame, detector, snake)
    for expect in (1, 2, 3):
        state, _ = track_frame(state, frame, detector, snake)
        assert state.frame_index == expect


def _described(x, y, axis, length=1.0):
    descriptor = np.zeros(64)
    descriptor[0] = 1.0
    descriptor[axis] += length
    return KeyPoint(x=x, y=y, scale=2.0, response=1.0, laplacian_sign=1,
                    descriptor=descriptor)


def propagate_against(monkeypatch, tracked, detections, detector=DETECTOR):
    """propagate_points with the frame's detections replaced by `detections`."""
    monkeypatch.setattr(tracking, "_detect_described",
                        lambda frame, params: detections)
    state = TrackState(frame_index=0, tracked_points=tracked, prev_result=None)
    return propagate_points(state, None, detector)


def test_propagate_matches_only_within_search_radius(monkeypatch):
    point = _described(50.0, 50.0, 0, 0.0)
    edge = _described(50.0 + SEARCH_RADIUS, 50.0, 0, 0.0)
    beyond = _described(50.0 + SEARCH_RADIUS + 0.5, 50.0, 0, 0.0)
    assert propagate_against(monkeypatch, [point], [edge])[1] == (SEARCH_RADIUS, 0.0)
    assert propagate_against(monkeypatch, [point], [beyond])[1] == (0.0, 0.0)


def test_propagate_applies_the_detector_ratio(monkeypatch):
    point = _described(50.0, 50.0, 0, 0.0)
    # distances 0.65 and 1.0 from the point's descriptor
    near = [_described(52.0, 50.0, 1, 0.65), _described(60.0, 50.0, 2, 1.0)]
    assert propagate_against(monkeypatch, [point], near,
                             DetectorParams(ratio=0.7))[1] == (2.0, 0.0)
    assert propagate_against(monkeypatch, [point], near,
                             DetectorParams(ratio=0.6))[1] == (0.0, 0.0)


def test_propagate_lets_points_share_a_detection(monkeypatch):
    tracked = [_described(50.0, 50.0, 0, 0.0), _described(51.0, 50.0, 0, 0.0)]
    target = _described(53.0, 50.0, 0, 0.0)
    points, offset = propagate_against(monkeypatch, tracked, [target])
    assert offset == (2.5, 0.0)
    assert [(p.x, p.y) for p in points] == [(53.0, 50.0), (53.0, 50.0)]
