"""Netpbm (PGM/PPM) decoding and encoding.

Reads P2/P5 graymaps and P3/P6 pixmaps with maxval up to 65535 and returns
grayscale intensities normalized to [0, 1]. Color inputs are reduced with the
usual luma weights 0.299 R + 0.587 G + 0.114 B. Header tokens are whitespace
separated and '#' starts a comment that runs to end of line. All parse
failures raise DecodeError with the byte offset of the offending input.
"""

from __future__ import annotations

import numpy as np

from .errors import DecodeError

_WHITESPACE = b" \t\n\r\x0b\x0c"
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(_WHITESPACE)] = True

_MAX_DIGITS = 18                                # 10**18 - 1 < 2**63
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class _Tokenizer:
    """Walks the header portion of a Netpbm byte stream, tracking offsets."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_separators(self) -> None:
        data = self.data
        n = len(data)
        while self.pos < n:
            b = data[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == ord("#"):
                # comment runs to end of line
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def next_token(self, what: str) -> tuple[bytes, int]:
        self._skip_separators()
        data = self.data
        n = len(data)
        if self.pos >= n:
            raise DecodeError(f"missing {what} at byte {self.pos}")
        start = self.pos
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != ord("#"):
            self.pos += 1
        return data[start:self.pos], start

    def next_int(self, what: str, upper: int | None = None) -> int:
        token, start = self.next_token(what)
        if not token.isdigit():
            raise DecodeError(f"bad {what} {token!r} at byte {start}")
        value = int(token)
        if upper is not None and value > upper:
            raise DecodeError(f"{what} {value} out of range at byte {start}")
        return value


def _ascii_samples(tok: _Tokenizer, count: int, maxval: int) -> np.ndarray:
    """The next `count` plain-text samples; tokens after them are ignored.

    One array pass reads the raster when its first `count` tokens are all
    ASCII digits, at most 18 each (so every value fits in int64) and at
    most maxval: each byte is classed as whitespace or not, tokens run
    between the edges of that class, and each value is the sum of its
    digits times powers of ten. A comment among those tokens holds '#',
    which is not a digit. Anything else goes through the tokenizer, which
    names the byte offset of the first bad, missing or out-of-range sample.
    """
    raw = np.frombuffer(tok.data, dtype=np.uint8, offset=tok.pos)
    solid = ~_IS_SPACE[raw]
    edges = np.flatnonzero(np.diff(solid, prepend=False, append=False))
    starts, ends = edges[0:2 * count:2], edges[1:2 * count:2]
    if starts.size == count:
        lengths = ends - starts
        digits = raw[:ends[-1]] - ord("0")
        if lengths.max() <= _MAX_DIGITS and (~solid[:ends[-1]] | (digits < 10)).all():
            at = np.flatnonzero(solid[:ends[-1]])
            first = np.zeros(count, dtype=np.int64)
            np.cumsum(lengths[:-1], out=first[1:])
            power = _POW10[np.repeat(ends, lengths) - 1 - at]
            values = np.add.reduceat(digits[at] * power, first)
            if values.max() <= maxval:
                return values.astype(np.float64)
    # a list, not a preallocated array: a header may declare more samples
    # than the file holds or memory fits, and the first missing one is the error
    return np.array([tok.next_int("sample", upper=maxval) for _ in range(count)],
                    dtype=np.float64)


def _binary_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    width = 2 if maxval > 255 else 1
    need = count * width
    if len(data) - pos < need:
        raise DecodeError(
            f"raster truncated at byte {len(data)} ({need} bytes needed from byte {pos})"
        )
    raw = data[pos:pos + need]
    if width == 1:
        samples = np.frombuffer(raw, dtype=np.uint8)
    else:
        samples = np.frombuffer(raw, dtype=">u2")
    if samples.max(initial=0) > maxval:
        raise DecodeError(f"sample exceeds maxval in raster starting at byte {pos}")
    return samples.astype(np.float64)


def decode(data: bytes) -> np.ndarray:
    """Decode Netpbm bytes into a (height, width) float array in [0, 1]."""
    tok = _Tokenizer(data)
    magic, start = tok.next_token("magic number")
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise DecodeError(f"unsupported magic {magic!r} at byte {start}")
    color = magic in (b"P3", b"P6")
    binary = magic in (b"P5", b"P6")
    width = tok.next_int("width")
    height = tok.next_int("height")
    if width == 0 or height == 0:
        raise DecodeError(f"zero image dimension before byte {tok.pos}")
    maxval_at = tok.pos
    maxval = tok.next_int("maxval", upper=65535)
    if maxval < 1:
        raise DecodeError(f"maxval must be positive at byte {maxval_at}")
    count = width * height * (3 if color else 1)
    if binary:
        # exactly one whitespace byte separates the maxval from the raster
        if tok.pos >= len(data) or data[tok.pos] not in _WHITESPACE:
            raise DecodeError(f"missing raster separator at byte {tok.pos}")
        samples = _binary_samples(data, tok.pos + 1, count, maxval)
    else:
        samples = _ascii_samples(tok, count, maxval)
    samples /= maxval
    if color:
        rgb = samples.reshape(height, width, 3)
        r, g, b = LUMA_WEIGHTS
        return r * rgb[:, :, 0] + g * rgb[:, :, 1] + b * rgb[:, :, 2]
    return samples.reshape(height, width)


def read(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode(fh.read())


def write_pgm(path, gray01: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as a binary (P5) graymap, maxval 255."""
    levels = np.rint(np.clip(gray01, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(levels.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write a (h, w, 3) uint8 array as a binary (P6) pixmap."""
    if rgb.dtype != np.uint8 or rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("expected a (h, w, 3) uint8 array")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(rgb.tobytes())
