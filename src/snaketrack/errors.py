"""Exception types shared across the package."""


class SnaketrackError(Exception):
    """Base class for all errors raised by this package."""


class DecodeError(SnaketrackError):
    """A Netpbm file could not be parsed; the message names the byte offset."""


class SizeError(SnaketrackError):
    """An image is too small to process (both dimensions must be >= 3)."""


class ConfigError(SnaketrackError):
    """A run configuration file is missing, malformed, or inconsistent."""


class InitializationError(SnaketrackError):
    """No keypoints to seed agents from, or too few distinct agent pixels."""


class TrackingLostError(SnaketrackError):
    """No contour survived the hand-off from one frame to the next."""
