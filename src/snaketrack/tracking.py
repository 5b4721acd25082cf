"""Frame-to-frame object tracking on top of segmentation.

The first frame seeds eight tracked points from detected keypoints (one per
frame-border anchor) and segments from them. Each following frame matches
the tracked points' descriptors against fresh detections within a search
radius, takes the per-component median displacement as a global offset,
shifts the previous contours by that offset, and resumes segmentation so the
agents re-converge on the moved boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrackingLostError
from .image import Image, integral_image
from .snake import SegmentationResult, SnakeParams, resume_segmentation, run_segmentation
from .surf import (DetectorParams, KeyPoint, copy_keypoint, describe_keypoints,
                   detect_keypoints, match_descriptors, select_extremity_points)

SEARCH_RADIUS = 30.0


@dataclass
class TrackState:
    frame_index: int
    tracked_points: list[KeyPoint]
    prev_result: SegmentationResult
    global_offset: tuple[float, float] = (0.0, 0.0)


def _detect_described(img: Image, params: DetectorParams) -> list[KeyPoint]:
    ii = integral_image(img)
    return describe_keypoints(ii, detect_keypoints(ii, params))


def init_tracking(frame: Image, detector: DetectorParams,
                  snake: SnakeParams) -> tuple[TrackState, SegmentationResult]:
    """Detect, pick the eight extremity points, and segment the first frame."""
    kps = _detect_described(frame, detector)
    selection = select_extremity_points(kps, frame.width, frame.height)
    result = run_segmentation(frame, selection.points, snake)
    tracked = [copy_keypoint(kp) for kp in selection.points]
    state = TrackState(frame_index=0, tracked_points=tracked, prev_result=result)
    return state, result


def propagate_points(state: TrackState, frame: Image,
                     detector: DetectorParams) -> tuple[list[KeyPoint], tuple[float, float]]:
    """Match tracked points into a new frame and estimate the global offset.

    Each tracked point is matched on its own by `match_descriptors` against
    the new detections within SEARCH_RADIUS of it, so several points may
    adopt the same detection. Matched points adopt the new keypoint;
    unmatched points are shifted by the offset and keep their old
    descriptor. The offset is the component-wise median of the matched
    displacements, or (0, 0) when nothing matched.
    """
    kps = _detect_described(frame, detector)
    updated = [copy_keypoint(kp) for kp in state.tracked_points]
    matched_to: list[KeyPoint | None] = [None] * len(updated)
    displacements = []
    for idx, kp in enumerate(updated):
        near = [c for c in kps if np.hypot(c.x - kp.x, c.y - kp.y) <= SEARCH_RADIUS]
        for match in match_descriptors([kp], near, detector.ratio):
            best = near[match.index_b]
            matched_to[idx] = best
            displacements.append((best.x - kp.x, best.y - kp.y))
    if displacements:
        arr = np.asarray(displacements, dtype=np.float64)
        offset = (float(np.median(arr[:, 0])), float(np.median(arr[:, 1])))
    else:
        offset = (0.0, 0.0)
    for idx, kp in enumerate(updated):
        hit = matched_to[idx]
        if hit is not None:
            updated[idx] = copy_keypoint(hit)
        else:
            kp.x += offset[0]
            kp.y += offset[1]
    return updated, offset


def track_frame(state: TrackState, frame: Image, detector: DetectorParams,
                snake: SnakeParams) -> tuple[TrackState, SegmentationResult]:
    """Advance the tracker by one frame.

    Shifts the previous frame's contours by the rounded global offset
    (clamped into bounds by the resumed segmentation) and re-converges them.
    Raises TrackingLostError when no contour survives.
    """
    points, offset = propagate_points(state, frame, detector)
    ox = int(np.floor(offset[0] + 0.5))
    oy = int(np.floor(offset[1] + 0.5))
    carried = []
    for c in state.prev_result.contours:
        shifted = tuple((x + ox, y + oy) for x, y in c.points)
        carried.append(type(c)(id=c.id, agent_ids=c.agent_ids, points=shifted))
    result = resume_segmentation(frame, carried, snake)
    if not result.contours:
        raise TrackingLostError(
            f"no contour survived on frame {state.frame_index + 1}")
    new_state = TrackState(frame_index=state.frame_index + 1,
                           tracked_points=points, prev_result=result,
                           global_offset=offset)
    return new_state, result
