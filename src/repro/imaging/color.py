"""Colour-space conversion and chroma subsampling (BT.601 full range)."""

from __future__ import annotations

import numpy as np

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_planes",
    "ycbcr_to_rgb",
    "downsample_420",
    "upsample_420",
]

# Pair tables: entry (r << 8) | g holds the correctly-rounded partial
# sums (yr+yg, cbr-cbg, crr-crg) for that red/green combination, so the
# whole conversion is two gathers and one add.  The table stores the
# same rounded float64 the runtime expression produces (one rounding per
# add either way), subtraction is folded into the sign of the blue
# products (IEEE a - b == a + (-b) and -(c*k) == (-c)*k exactly), and
# the final adds run left-to-right — so every output bit matches
# rgb_to_ycbcr().
_LUTS_PAIR: tuple[np.ndarray, np.ndarray] | None = None


def _luts_pair() -> tuple[np.ndarray, np.ndarray]:
    global _LUTS_PAIR
    if _LUTS_PAIR is None:
        k = np.arange(256, dtype=np.float64)
        r = np.repeat(k, 256)
        g = np.tile(k, 256)
        rg = np.empty((65536, 3))
        rg[:, 0] = 0.299 * r + 0.587 * g
        rg[:, 1] = (128.0 - 0.168736 * r) + (-(0.331264 * g))
        rg[:, 2] = (128.0 + 0.5 * r) + (-(0.418688 * g))
        b = np.empty((256, 3))
        b[:, 0] = 0.114 * k
        b[:, 1] = 0.5 * k
        b[:, 2] = -(0.081312 * k)
        _LUTS_PAIR = (rg, b)
    return _LUTS_PAIR


def ycbcr_planes(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BT.601 conversion as three separate float64 planes.

    Bit-identical to :func:`rgb_to_ycbcr` (pinned by tests) but avoids
    the (H, W, 3) stack copy — the encoder splits the planes right back
    apart anyway.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {rgb.shape}")
    if rgb.dtype != np.uint8:  # LUTs index by uint8; take the direct path
        ycc = rgb_to_ycbcr(rgb)
        return ycc[..., 0], ycc[..., 1], ycc[..., 2]
    # Rendered pages repeat rows in long vertical runs (flat bands, text
    # leading), so convert one representative per run and gather the rest
    # back by index — identical bytes in, identical floats out.
    h, w, _ = rgb.shape
    rows = rgb.reshape(h, w * 3)
    diff = (rows[1:] != rows[:-1]).any(axis=1)
    ids = np.empty(h, dtype=np.intp)
    ids[0] = 0
    np.cumsum(diff, out=ids[1:])
    reps = np.empty(h, dtype=bool)
    reps[0] = True
    reps[1:] = diff
    sub = rgb[reps]
    pair, blue = _luts_pair()
    idx = sub[..., 0].astype(np.intp)
    idx <<= 8
    idx |= sub[..., 1]
    ycc = pair[idx]
    ycc += blue[sub[..., 2].astype(np.intp)]
    full = ycc[ids]
    return full[..., 0], full[..., 1], full[..., 2]


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) uint8 RGB image to float YCbCr planes.

    Output is float64 with Y in [0, 255] and Cb/Cr centred on 128.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {rgb.shape}")
    r = rgb[..., 0].astype(np.float64)
    g = rgb[..., 1].astype(np.float64)
    b = rgb[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([y, cb, cr], axis=-1)


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Convert float YCbCr planes back to a uint8 RGB image."""
    ycbcr = np.asarray(ycbcr, dtype=np.float64)
    y = ycbcr[..., 0]
    cb = ycbcr[..., 1] - 128.0
    cr = ycbcr[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def downsample_420(plane: np.ndarray) -> np.ndarray:
    """2x2 box-average chroma subsampling (pads odd dimensions by edge).

    Written as explicit strided adds in ``mean``'s own reduction order —
    row pairs first, then the column pair, i.e. ``(a+b) + (c+d)`` — so
    the result is bit-identical to ``.mean(axis=(1, 3))`` without the
    generic reduce machinery.
    """
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    if h % 2 or w % 2:
        plane = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge")
        h, w = plane.shape
    x = plane.reshape(h // 2, 2, w // 2, 2)
    if w < 4:  # degenerate layouts reduce in a different order
        return x.mean(axis=(1, 3))
    out = (x[:, 0, :, 0] + x[:, 0, :, 1]) + (x[:, 1, :, 0] + x[:, 1, :, 1])
    out /= 4.0
    return out


def upsample_420(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour chroma upsampling back to (out_h, out_w)."""
    plane = np.asarray(plane, dtype=np.float64)
    up = np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)
    return up[:out_h, :out_w]
