"""IDX image/label container IO plus the bundled synthetic dataset builder.

The IDX layout is the classic big-endian one: images carry magic
0x00000803 followed by count/rows/cols u32s and raw bytes; labels carry
magic 0x00000801, a count, and one byte per item.  Reading is bit-exact
and every malformed-file condition raises its own exception type.  The
payload size the header declares is checked against the file size before
anything is read, and bytes after the payload are rejected.

Images are held as their bytes in :class:`PixelRows`, which scales a row to
``[0, 1]`` only when it is read; this module is the only one that knows the
byte format.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "IMAGE_MAGIC", "LABEL_MAGIC",
    "IdxFormatError", "IdxMagicError", "IdxTruncatedError", "IdxDimensionError",
    "Dataset", "PixelRows", "load_idx", "read_idx_images", "read_idx_labels",
    "write_idx_images", "write_idx_labels",
    "synthesize_arrays", "synthesize_idx_files", "load_or_synthesize",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base for malformed IDX input."""


class IdxMagicError(IdxFormatError):
    """Unexpected magic number."""


class IdxTruncatedError(IdxFormatError):
    """File shorter than its header promises."""


class IdxDimensionError(IdxFormatError):
    """Image and label files disagree on the item count."""


class PixelRows:
    """Read-only image rows held as their bytes and scaled as they are read.

    ``pixels`` is the ``(n, rows*cols)`` uint8 array, read-only; for a file
    read it is a view of the IDX payload.  Indexing takes anything an
    ndarray's indexing takes.  A selection that keeps both axes (a slice,
    an index array, a boolean mask) is again a ``PixelRows``, over a view
    of these bytes for a basic slice and over a byte copy otherwise; an
    int row or a single pixel comes back as its float64 value
    ``byte / 255.0``.  ``np.asarray(rows)`` builds the float rows, the same
    quotients whatever the selection, so a training batch or an inference
    block is converted only where a model reads it (8 bytes per pixel).
    """

    __slots__ = ("_pixels",)
    ndim = 2

    def __init__(self, pixels: np.ndarray):
        if not (isinstance(pixels, np.ndarray) and pixels.dtype == np.uint8
                and pixels.ndim == 2):
            raise ValueError(f"PixelRows needs a 2-D uint8 array, got "
                             f"{getattr(pixels, 'dtype', type(pixels).__name__)} of shape "
                             f"{np.shape(pixels)}")
        self._pixels = pixels.view()
        self._pixels.flags.writeable = False

    def __reduce__(self):       # a pickle's copy is read-only too
        return PixelRows, (self._pixels,)

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def shape(self) -> tuple[int, int]:
        return self._pixels.shape

    def __len__(self) -> int:
        return self._pixels.shape[0]

    def __getitem__(self, key) -> PixelRows | np.ndarray:
        got = self._pixels[key]
        return PixelRows(got) if got.ndim == 2 else _scaled(got)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("PixelRows holds bytes: its float rows are always a copy")
        x = _scaled(self._pixels)
        return x if dtype is None else x.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"PixelRows({self.shape[0]} rows of {self.shape[1]} bytes)"


def _scaled(pixels):
    """Bytes as their [0, 1] values ``byte / 255.0``, in one fresh array."""
    out = pixels.astype(np.float64)
    out /= 255.0      # in place: the same quotients, without a second float copy
    return out


class Dataset(NamedTuple):
    """Train/test split: rows (:class:`PixelRows` or float arrays) plus integer labels."""

    x_train: PixelRows | np.ndarray
    y_train: np.ndarray
    x_test: PixelRows | np.ndarray
    y_test: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(max(np.max(self.y_train, initial=-1), np.max(self.y_test, initial=-1))) + 1


def _read_exact(f, n: int, what: str, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxTruncatedError(f"{path}: truncated while reading {what} "
                                f"(wanted {n} bytes, got {len(data)})")
    return data


def _read_payload(f, n: int, what: str, path) -> bytes:
    """The ``n`` bytes after the header, which must end the file; sized before reading."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < n:
        raise IdxTruncatedError(f"{path}: truncated {what}: the header promises {n} "
                                f"bytes, the file holds {left}")
    if left > n:
        raise IdxFormatError(f"{path}: {left - n} trailing bytes after the {what}")
    return _read_exact(f, n, what, path)


def read_idx_images(path) -> PixelRows:
    """Read an IDX image file as (n, rows*cols) :class:`PixelRows` over its payload."""
    path = Path(path)
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, "magic", path))
        if magic != IMAGE_MAGIC:
            raise IdxMagicError(f"{path}: bad image magic 0x{magic:08x}, "
                                f"expected 0x{IMAGE_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, "header", path))
        raw = _read_payload(f, count * rows * cols, "pixel data", path)
    return PixelRows(np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols))


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) int array."""
    path = Path(path)
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, "magic", path))
        if magic != LABEL_MAGIC:
            raise IdxMagicError(f"{path}: bad label magic 0x{magic:08x}, "
                                f"expected 0x{LABEL_MAGIC:08x}")
        count, = struct.unpack(">I", _read_exact(f, 4, "count", path))
        raw = _read_payload(f, count, "label data", path)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path) -> tuple[PixelRows, np.ndarray]:
    """Load a paired image/label IDX set; counts must agree."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxDimensionError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels")
    return images, labels


def _as_bytes(values, what: str) -> np.ndarray:
    """``values`` as contiguous uint8, refusing anything a byte would not hold as is.

    A non-integer dtype or a value outside [0, 255] raises ``ValueError``
    instead of being truncated or wrapped; an empty sequence (which numpy
    types as float64) is accepted.
    """
    a = np.asarray(values)
    if a.dtype != np.uint8 and a.size:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"{what} must have an integer dtype, got {a.dtype}")
        bad = np.flatnonzero((a < 0) | (a > 255))
        if bad.size:
            at = tuple(int(i) for i in np.unravel_index(bad[0], a.shape))
            raise ValueError(f"{what} value {a.flat[bad[0]]} at index "
                             f"{at[0] if a.ndim == 1 else at} is outside [0, 255]")
    return np.ascontiguousarray(a, dtype=np.uint8)


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (n, rows, cols) integer array of bytes as an IDX image file."""
    images = _as_bytes(images, "image")
    if images.ndim != 3:
        raise ValueError(f"expected (n, rows, cols) array, got shape {images.shape}")
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    """Write a 1-D integer array (values in [0, 255]) as an IDX label file."""
    labels = _as_bytes(labels, "label")
    if labels.ndim != 1:
        raise ValueError(f"expected (n,) labels, got shape {labels.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# synthetic fixture
# ---------------------------------------------------------------------------

_SYNTH_CLASSES, _SYNTH_SIDE = 10, 28
_SYNTH_CONTRAST, _SYNTH_MASK_PIXELS, _SYNTH_PIXEL_NOISE = 0.15, 40, 0.10
# Rows of floats alive at once while the fixture is made (1.6 MB per block at
# the desk width).  Any block size gives the same bytes.
_SYNTH_ROWS = 256


def synthesize_arrays(n_train: int = 5000, n_test: int = 1000, seed: int = 2024) -> Dataset:
    """Build the desk-scale synthetic classification fixture.

    Each of 10 classes is a shared low-contrast background plus a
    class-specific sparse signed mask; samples add Gaussian pixel noise and
    quantize to 28 x 28 bytes, held as :class:`PixelRows` exactly as an IDX
    read holds them.  Contrast and mask size are tuned so accuracy degrades
    across evaluation noise levels up to 0.5 instead of saturating.
    """
    rng = np.random.default_rng(seed)
    d = _SYNTH_SIDE * _SYNTH_SIDE
    base = rng.uniform(0.35, 0.65, size=d)
    templates = np.tile(base, (_SYNTH_CLASSES, 1))
    for k in range(_SYNTH_CLASSES):
        idx = rng.choice(d, size=_SYNTH_MASK_PIXELS, replace=False)
        signs = rng.choice([-1.0, 1.0], size=_SYNTH_MASK_PIXELS)
        templates[k, idx] += _SYNTH_CONTRAST * signs

    def _sample(n: int) -> tuple[PixelRows, np.ndarray]:
        labels = rng.integers(0, _SYNTH_CLASSES, size=n)
        pixels = np.empty((n, d), dtype=np.uint8)
        for start in range(0, n, _SYNTH_ROWS):
            block = labels[start:start + _SYNTH_ROWS]
            # the block's share of one (n, d) draw, then the same IEEE steps
            # as template + noise, * 255, rint and clip on the whole array
            imgs = rng.normal(0.0, _SYNTH_PIXEL_NOISE, size=(block.size, d))
            imgs += templates[block]
            imgs *= 255.0
            np.rint(imgs, out=imgs)
            np.clip(imgs, 0, 255, out=imgs)
            pixels[start:start + block.size] = imgs
        return PixelRows(pixels), labels.astype(np.int64)

    x_train, y_train = _sample(n_train)
    x_test, y_test = _sample(n_test)
    return Dataset(x_train, y_train, x_test, y_test)


def synthesize_idx_files(out_dir, **kwargs) -> dict[str, Path]:
    """Write the synthetic fixture as four IDX files; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = synthesize_arrays(**kwargs)
    paths = {
        "train_images": out_dir / "train-images-idx3-ubyte",
        "train_labels": out_dir / "train-labels-idx1-ubyte",
        "test_images": out_dir / "t10k-images-idx3-ubyte",
        "test_labels": out_dir / "t10k-labels-idx1-ubyte",
    }
    for split, x, y in (("train", data.x_train, data.y_train),
                        ("test", data.x_test, data.y_test)):
        write_idx_images(paths[f"{split}_images"], x.pixels.reshape(-1, _SYNTH_SIDE, _SYNTH_SIDE))
        write_idx_labels(paths[f"{split}_labels"], y)
    return paths


def load_or_synthesize(train_images=None, train_labels=None,
                       test_images=None, test_labels=None) -> Dataset:
    """Load the four IDX files when all are given, else build the default synthetic fixture."""
    paths = (train_images, train_labels, test_images, test_labels)
    if all(p is not None for p in paths):
        x_train, y_train = load_idx(train_images, train_labels)
        x_test, y_test = load_idx(test_images, test_labels)
        return Dataset(x_train, y_train, x_test, y_test)
    if any(p is not None for p in paths):
        raise ValueError("provide all four dataset paths or none")
    return synthesize_arrays()
