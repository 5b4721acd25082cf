"""Multi-agent active contour segmentation with keypoint-based tracking."""

from .errors import (ConfigError, DecodeError, InitializationError, SizeError,
                     SnaketrackError, TrackingLostError)
from .image import (Image, IntegralImage, ScalarField, external_energy_map,
                    gaussian_smooth, gradient_magnitude, integral_image)
from .snake import (Contour, ContourResult, Event, ExplorerAgent,
                    SegmentationResult, SnakeParams, SupervisorState,
                    run_segmentation, resume_segmentation)
from .surf import (DetectorParams, KeyPoint, Match, describe_keypoints,
                   detect_keypoints, match_descriptors, select_extremity_points)
from .tracking import TrackState, init_tracking, propagate_points, track_frame

__version__ = "0.1.0"


def _keep_freed_arrays() -> None:
    """Fix glibc's dynamic malloc thresholds at their ceiling, 32 and 64 MiB.

    Left dynamic, glibc keeps or returns the 20-25 MB that each stage of a
    384x384 frame frees by heap layout alone, so one process refaults ~30 MB
    a frame and the next none, and frame times split into two modes 25% apart.
    """
    import ctypes
    import sys
    if sys.platform == "linux" and hasattr(libc := ctypes.CDLL(None), "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays under 32 MiB use the heap
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of free top


_keep_freed_arrays()

__all__ = [
    "ConfigError", "DecodeError", "InitializationError", "SizeError",
    "SnaketrackError", "TrackingLostError",
    "Image", "IntegralImage", "ScalarField", "external_energy_map",
    "gaussian_smooth", "gradient_magnitude", "integral_image",
    "Contour", "ContourResult", "Event", "ExplorerAgent", "SegmentationResult",
    "SnakeParams", "SupervisorState", "run_segmentation", "resume_segmentation",
    "DetectorParams", "KeyPoint", "Match", "describe_keypoints",
    "detect_keypoints", "match_descriptors", "select_extremity_points",
    "TrackState", "init_tracking", "propagate_points", "track_frame",
    "__version__",
]
