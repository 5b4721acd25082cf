"""Multi-agent active contour segmentation with keypoint-based tracking."""

from .errors import (ConfigError, DecodeError, ExtremitySelectionError,
                     InitializationError, SizeError, SnaketrackError,
                     TrackingLostError)
from .image import (Image, IntegralImage, ScalarField, external_energy_map,
                    gaussian_smooth, gradient_magnitude, integral_image)
from .snake import (Contour, ContourResult, Event, ExplorerAgent,
                    SegmentationResult, SnakeParams, SupervisorState,
                    run_segmentation, resume_segmentation)
from .surf import (DetectorParams, KeyPoint, Match, describe_keypoints,
                   detect_keypoints, match_descriptors, select_extremity_points)
from .tracking import TrackState, init_tracking, propagate_points, track_frame

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DecodeError", "ExtremitySelectionError",
    "InitializationError", "SizeError", "SnaketrackError", "TrackingLostError",
    "Image", "IntegralImage", "ScalarField", "external_energy_map",
    "gaussian_smooth", "gradient_magnitude", "integral_image",
    "Contour", "ContourResult", "Event", "ExplorerAgent", "SegmentationResult",
    "SnakeParams", "SupervisorState", "run_segmentation", "resume_segmentation",
    "DetectorParams", "KeyPoint", "Match", "describe_keypoints",
    "detect_keypoints", "match_descriptors", "select_extremity_points",
    "TrackState", "init_tracking", "propagate_points", "track_frame",
    "__version__",
]
