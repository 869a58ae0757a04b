"""IDX image/label container IO plus the bundled synthetic dataset builder.

The IDX layout is the classic big-endian one: images carry magic
0x00000803 followed by count/rows/cols u32s and raw bytes; labels carry
magic 0x00000801, a count, and one byte per item.  Reading is bit-exact
and every malformed-file condition raises its own exception type.  The
payload size the header declares is checked against the file size before
anything is read, and bytes after the payload are rejected.
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
    "Dataset", "load_idx", "read_idx_images", "read_idx_labels",
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


class Dataset(NamedTuple):
    """Train/test split as flat [0,1]-scaled rows plus integer labels."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
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


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into an (n, rows*cols) float array scaled to [0, 1]."""
    path = Path(path)
    with open(path, "rb") as f:
        magic, = struct.unpack(">I", _read_exact(f, 4, "magic", path))
        if magic != IMAGE_MAGIC:
            raise IdxMagicError(f"{path}: bad image magic 0x{magic:08x}, "
                                f"expected 0x{IMAGE_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, "header", path))
        raw = _read_payload(f, count * rows * cols, "pixel data", path)
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    return (pixels / 255.0).reshape(count, rows * cols)


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


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load a paired image/label IDX set; counts must agree."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxDimensionError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels")
    return images, labels


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (n, rows, cols) uint8 array as an IDX image file."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"expected (n, rows, cols) array, got shape {images.shape}")
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels) -> None:
    """Write labels (values in [0, 255]) as an IDX label file."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# synthetic fixture
# ---------------------------------------------------------------------------

def synthesize_arrays(n_train: int = 5000, n_test: int = 1000, n_classes: int = 10,
                      side: int = 28, seed: int = 2024,
                      contrast: float = 0.15, mask_pixels: int = 40,
                      pixel_noise: float = 0.10) -> Dataset:
    """Build the desk-scale synthetic classification fixture.

    Each class is a shared low-contrast background plus a class-specific
    sparse signed mask; samples add Gaussian pixel noise and quantize to
    bytes, exactly as an IDX round trip would.  Contrast and mask size are
    tuned so accuracy degrades across evaluation noise levels up to 0.5
    instead of saturating.
    """
    rng = np.random.default_rng(seed)
    d = side * side
    base = rng.uniform(0.35, 0.65, size=d)
    templates = np.tile(base, (n_classes, 1))
    for k in range(n_classes):
        idx = rng.choice(d, size=mask_pixels, replace=False)
        signs = rng.choice([-1.0, 1.0], size=mask_pixels)
        templates[k, idx] += contrast * signs

    def _sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        imgs = templates[labels] + rng.normal(0.0, pixel_noise, size=(n, d))
        bytes_ = np.clip(np.rint(imgs * 255.0), 0, 255).astype(np.uint8)
        return bytes_.astype(np.float64) / 255.0, labels.astype(np.int64)

    x_train, y_train = _sample(n_train)
    x_test, y_test = _sample(n_test)
    return Dataset(x_train, y_train, x_test, y_test)


def synthesize_idx_files(out_dir, **kwargs) -> dict[str, Path]:
    """Write the synthetic fixture as four IDX files; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    side = kwargs.get("side", 28)
    data = synthesize_arrays(**kwargs)
    paths = {
        "train_images": out_dir / "train-images-idx3-ubyte",
        "train_labels": out_dir / "train-labels-idx1-ubyte",
        "test_images": out_dir / "t10k-images-idx3-ubyte",
        "test_labels": out_dir / "t10k-labels-idx1-ubyte",
    }
    for split, x, y in (("train", data.x_train, data.y_train),
                        ("test", data.x_test, data.y_test)):
        imgs = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
        imgs = imgs.reshape(-1, side, side)
        write_idx_images(paths[f"{split}_images"], imgs)
        write_idx_labels(paths[f"{split}_labels"], y)
    return paths


def load_or_synthesize(train_images=None, train_labels=None,
                       test_images=None, test_labels=None,
                       seed: int = 2024) -> Dataset:
    """Load the four IDX files when all are given, else build the synthetic fixture."""
    paths = (train_images, train_labels, test_images, test_labels)
    if all(p is not None for p in paths):
        x_train, y_train = load_idx(train_images, train_labels)
        x_test, y_test = load_idx(test_images, test_labels)
        return Dataset(x_train, y_train, x_test, y_test)
    if any(p is not None for p in paths):
        raise ValueError("provide all four dataset paths or none")
    return synthesize_arrays(seed=seed)
