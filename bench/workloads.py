"""The three timed loops; one operation is one frame.

Each loop times only the program's calls for a frame (decode through
result) and checks the outputs after the clock stops. Calls go through the
package's module attributes so that `spans.Tracer` can wrap them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from snaketrack import image, netpbm, snake, surf, tracking
from snaketrack.image import Image
from snaketrack.snake import ContourResult, SnakeParams
from snaketrack.surf import DetectorParams

import checks
import scenes


@dataclass
class Frame:
    first: bool                 # frame 0 of its sequence
    seconds: float
    ok: bool
    quality: float | None      # None where the frame has nothing to score
    correct_matches: int | None = None
    traced: bool = False


def _track(seq: scenes.Sequence):
    # the acceptance suite's tracking settings for 96x96 squares
    detector = DetectorParams(octaves=4)
    params = SnakeParams(sigma=2.0)
    size = scenes.TRACK_SIZE
    state = None
    for f, path in enumerate(seq.paths):
        t0 = time.perf_counter()
        img = Image(netpbm.read(path))
        if state is None:
            state, result = tracking.init_tracking(img, detector, params)
        else:
            state, result = tracking.track_frame(state, img, detector, params)
        seconds = time.perf_counter() - t0
        region = checks.polygon_mask([c.points for c in result.contours], size, size)
        score = checks.iou(region, checks.square_mask(seq.squares[f], size, size))
        ok = (score >= checks.TRACK_MIN_IOU
              and checks.energy_non_increasing(result.energy_history))
        yield Frame(f == 0, seconds, ok, score)


def _keypoints(seq: scenes.Sequence):
    detector = DetectorParams()
    prev = None
    for f, path in enumerate(seq.paths):
        t0 = time.perf_counter()
        ii = image.integral_image(Image(netpbm.read(path)))
        kps = surf.detect_keypoints(ii, detector)
        surf.describe_keypoints(ii, kps)
        matches = None if prev is None else surf.match_descriptors(prev, kps, detector.ratio)
        seconds = time.perf_counter() - t0
        ok = checks.unit_descriptors(kps)
        if matches is None:
            yield Frame(True, seconds, ok, None)
        else:
            disp = checks.displacements(matches, prev, kps)
            good = checks.correct_matches(disp, seq.shift)
            ok = ok and checks.median_shift_ok(disp, seq.shift)
            yield Frame(False, seconds, ok, good / len(matches) if matches else 0.0, good)
        prev = kps


def _segment(seq: scenes.Sequence):
    # at sigma 4 the energy field reaches rings 8 px outside the edges; at
    # sigma 2 most rings around the small disks never move
    params = SnakeParams(sigma=4.0)
    size = scenes.RING_SIZE
    sx, sy = seq.shift
    carried = seq.rings
    for f, path in enumerate(seq.paths):
        if f > 0:
            carried = [ContourResult(c.id, c.agent_ids,
                                     tuple((x + sx, y + sy) for x, y in c.points))
                       for c in result.contours]
        start = sum(len(c.agent_ids) for c in carried)
        t0 = time.perf_counter()
        result = snake.resume_segmentation(Image(netpbm.read(path)), carried, params)
        seconds = time.perf_counter() - t0
        points = [c.points for c in result.contours]
        disks = seq.disks[f]
        score = checks.iou(checks.polygon_mask(points, size, size),
                           checks.disk_mask(disks, size, size))
        ok = (bool(points)
              and checks.energy_non_increasing(result.energy_history)
              and checks.agents_conserved(start, result)
              and max(checks.circle_distances(points, disks)) <= checks.RING_MAX_MEAN_DISTANCE)
        yield Frame(f == 0, seconds, ok, score)


# workload name -> (makes the round of sequences, runs one sequence)
WORKLOADS = {
    "track-square96": (scenes.track_round, _track),
    "keypoints-blobs384": (scenes.keypoint_round, _keypoints),
    "segment-rings384": (scenes.ring_round, _segment),
}
