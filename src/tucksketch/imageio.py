"""Binary PPM (P6) and PGM (P5) image I/O with maxval 255.

Images are tensors of shape (height, width, channels) with float entries in
[0, 255]; channels is 1 for grayscale and 3 for color. The file payload is
row-major with interleaved channels, as the formats define.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["ImageFormatError", "load_image_tensor", "save_image_tensor"]


class ImageFormatError(ValueError):
    """Raised for malformed or unsupported image files."""


# The netpbm header: four tokens (magic, width, height, maxval), each a
# maximal run of non-whitespace bytes that does not start with "#". Between
# tokens come at least one whitespace byte, then any mix of whitespace and
# comments, a comment running from a "#" to its "\n"; the same mix may lead
# the magic. Exactly one whitespace byte ends the header, and the raster
# follows. Bytes \s is the set `bytes.isspace` accepts.
_SEP = rb"(?:\s|#[^\n]*\n)*"
_TOKEN = rb"((?!#)\S+)"
_HEADER = re.compile(_SEP + _TOKEN + (rb"\s" + _SEP + _TOKEN) * 3 + rb"\s")


def load_image_tensor(path) -> np.ndarray:
    """Read a P5/P6 file into a column-major (H, W, C) float64 tensor, values 0-255."""
    with open(path, "rb") as f:
        blob = f.read()
    header = _HEADER.match(blob)
    if header is None:
        raise ImageFormatError("truncated header")
    magic, width_s, height_s, maxval_s = header.groups()
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic!r}; expected P5 or P6")
    # ASCII digits only: int() also takes a sign and "_" separators, so
    # "1_6" would read as 16
    if not all(field.isdigit() for field in (width_s, height_s, maxval_s)):
        raise ImageFormatError("non-numeric header field")
    width, height, maxval = int(width_s), int(height_s), int(maxval_s)
    if width < 1 or height < 1:
        raise ImageFormatError("image dimensions must be positive")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}; expected 255")
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    payload = blob[header.end():]
    if len(payload) < expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8, count=expected)
    return pixels.reshape((height, width, channels)).astype(np.float64, order="F")


def save_image_tensor(x: np.ndarray, path) -> None:
    """Write an (H, W, C) tensor as P5/P6, clamping to [0, 255] and rounding."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] not in (1, 3):
        raise ValueError(f"expected an (H, W, 1|3) tensor, got shape {x.shape}")
    height, width, channels = x.shape
    magic = b"P6" if channels == 3 else b"P5"
    payload = np.clip(np.rint(x), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(payload.tobytes())
