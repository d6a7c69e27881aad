"""Deterministic pixel operations for OCR preprocessing and augmentation.

All quantization is floor(x + 0.5) (round half up) so results are
bit-reproducible across platforms.  Binary PPM (P6) and PGM (P5) cover
fixture I/O.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np

from .core import InvariantError, PixelImage

GRAY_WEIGHTS = (0.299, 0.587, 0.114)


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def to_grayscale(image: PixelImage) -> PixelImage:
    """Weighted RGB-to-luma conversion; 1-channel input passes through."""
    if image.channels == 1:
        return image
    px = image.pixels.astype(np.float64)
    luma = GRAY_WEIGHTS[0] * px[:, :, 0] + GRAY_WEIGHTS[1] * px[:, :, 1] + GRAY_WEIGHTS[2] * px[:, :, 2]
    return PixelImage.from_array(_quantize(luma))


def binary_threshold(image: PixelImage, threshold: int) -> PixelImage:
    """Map samples at or above the threshold to 255 and the rest to 0."""
    if image.channels != 1:
        raise InvariantError(f"binary_threshold expects a 1-channel image (got {image.channels})")
    if not (isinstance(threshold, int) and 0 <= threshold <= 255):
        raise InvariantError(f"threshold in 0..255 violated (got {threshold!r})")
    out = np.where(image.pixels >= threshold, 255, 0).astype(np.uint8)
    return PixelImage.from_array(out)


def invert(image: PixelImage) -> PixelImage:
    """Flip every sample: v -> 255 - v."""
    return PixelImage.from_array((255 - image.pixels.astype(np.int16)).astype(np.uint8))


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with radius ceil(3*sigma)."""
    if not (isinstance(sigma, (int, float)) and sigma > 0):
        raise InvariantError(f"sigma > 0 violated (got {sigma!r})")
    radius = math.ceil(3 * sigma)
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    weights = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return weights / weights.sum()


def _convolve_axis(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    pad = [(0, 0)] * values.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(values, pad, mode="edge")  # clamp-to-edge
    out = np.zeros_like(values, dtype=np.float64)
    for k, w in enumerate(kernel):
        sl: list[slice] = [slice(None)] * values.ndim
        sl[axis] = slice(k, k + values.shape[axis])
        out += w * padded[tuple(sl)]
    return out


def gaussian_blur(image: PixelImage, sigma: float) -> PixelImage:
    """Separable Gaussian blur with clamp-to-edge borders.

    Both passes run in float; quantization happens once at the end, so the
    result equals a direct 2-D convolution with the outer-product kernel.
    """
    kernel = gaussian_kernel1d(sigma)
    values = image.pixels.astype(np.float64)
    values = _convolve_axis(values, kernel, axis=1)
    values = _convolve_axis(values, kernel, axis=0)
    return PixelImage.from_array(_quantize(values))


def _axis_coords(src: int, dst: int) -> np.ndarray:
    if dst == 1:
        return np.array([(src - 1) / 2.0])
    # endpoints map onto endpoints, so corners survive scaling exactly
    return np.arange(dst, dtype=np.float64) * (src - 1) / (dst - 1)


def scale(image: PixelImage, factor: float) -> PixelImage:
    """Bilinear resample; output dimensions are round(dim * factor)."""
    if not (isinstance(factor, (int, float)) and math.isfinite(factor) and factor > 0):
        raise InvariantError(f"scale factor > 0 violated (got {factor!r})")
    out_w = int(math.floor(image.width * factor + 0.5))
    out_h = int(math.floor(image.height * factor + 0.5))
    if out_w < 1 or out_h < 1:
        raise InvariantError(f"scale factor {factor!r} collapses {image.width}x{image.height} to zero size")

    cx = _axis_coords(image.width, out_w)
    cy = _axis_coords(image.height, out_h)
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    x1 = np.minimum(x0 + 1, image.width - 1)
    y1 = np.minimum(y0 + 1, image.height - 1)
    fx = (cx - x0)[np.newaxis, :, np.newaxis]
    fy = (cy - y0)[:, np.newaxis, np.newaxis]

    px = image.pixels.astype(np.float64)
    top = px[y0][:, x0] * (1 - fx) + px[y0][:, x1] * fx
    bottom = px[y1][:, x0] * (1 - fx) + px[y1][:, x1] * fx
    return PixelImage.from_array(_quantize(top * (1 - fy) + bottom * fy))


def pad_to_square(image: PixelImage) -> PixelImage:
    """Zero-pad the short dimension to a centered square.

    An odd leftover goes to the bottom/right, matching strip extraction.
    """
    side = max(image.width, image.height)
    top = (side - image.height) // 2
    bottom = side - image.height - top
    left = (side - image.width) // 2
    right = side - image.width - left
    out = np.pad(image.pixels, ((top, bottom), (left, right), (0, 0)), mode="constant")
    return PixelImage.from_array(out)


def write_image(image: PixelImage, path: str | Path) -> None:
    """Write binary PGM (1 channel) or PPM (3 channels), maxval 255."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + f"\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


# one header token: the whitespace and '#' comments before it, then the token itself
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


# a header with no comment: magic, three decimal tokens and one whitespace byte, as the token walk
# reads them; any other header, well formed or not, takes the walk
_PLAIN_HEADER = re.compile(rb"P[56]\s*(\d+)\s+(\d+)\s+(\d+)\s")


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    i = start
    for _ in range(count):
        match = _HEADER_TOKEN.match(data, i)
        token = match[1]
        if not token:
            raise InvariantError("truncated image header")
        if not token.isdigit():
            raise InvariantError(f"bad image header token {token!r}")
        tokens.append(int(token))
        i = match.end()
    if i >= len(data) or not data[i : i + 1].isspace():
        raise InvariantError("image header must end with whitespace")
    return tokens, i + 1


def read_image(path: str | Path) -> PixelImage:
    """Read a binary PGM (P5) or PPM (P6) file.

    A file that is not one raises InvariantError, or ValueError for a header number past
    int's digit limit; either message begins with the path.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        if data[:2] == b"P5":
            channels = 1
        elif data[:2] == b"P6":
            channels = 3
        else:
            raise InvariantError(f"unsupported image magic {data[:2]!r} (want P5 or P6)")
        plain = _PLAIN_HEADER.match(data)
        if plain is None:
            (width, height, maxval), offset = _read_header_tokens(data, 3, 2)
        else:
            width, height, maxval = int(plain[1]), int(plain[2]), int(plain[3])
            offset = plain.end()
        if maxval != 255:
            raise InvariantError(f"unsupported maxval {maxval} (want 255)")
        expected = width * height * channels
        samples = data[offset : offset + expected]
        if len(samples) != expected:
            raise InvariantError(f"image data truncated: want {expected} bytes, got {len(samples)}")
        return PixelImage(width, height, channels, samples)
    except ValueError as exc:
        # one crop among thousands: name it, as read_lines names the file and line
        exc.args = (f"{os.fspath(path)}: {exc}",)
        raise
