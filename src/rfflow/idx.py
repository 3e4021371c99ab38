"""IDX binary format reading (MNIST-style ubyte files)."""

from __future__ import annotations

import struct

import numpy as np

from .features import Dataset

IMAGE_MAGIC = 2051  # 0x00000803: ubyte, 3 dimensions
LABEL_MAGIC = 2049  # 0x00000801: ubyte, 1 dimension


def _read_header(payload: bytes, path, expected_magic: int, n_dims: int):
    """The header's dimensions and a view of the body after it (no copy)."""
    head = 4 * (1 + n_dims)
    if len(payload) < head:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">i", payload[:4])[0]
    if magic != expected_magic:
        raise ValueError(f"{path}: bad IDX magic {magic}, expected {expected_magic}")
    dims = struct.unpack(f">{n_dims}i", payload[4:head])
    return dims, memoryview(payload)[head:]


def read_idx_images(path) -> np.ndarray:
    """Raw uint8 images of shape (count, rows, cols)."""
    with open(path, "rb") as fh:
        payload = fh.read()
    (count, rows, cols), body = _read_header(payload, path, IMAGE_MAGIC, 3)
    if len(body) != count * rows * cols:
        raise ValueError(f"{path}: truncated IDX payload")
    return np.frombuffer(body, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        payload = fh.read()
    (count,), body = _read_header(payload, path, LABEL_MAGIC, 1)
    if len(body) != count:
        raise ValueError(f"{path}: truncated IDX payload")
    return np.frombuffer(body, dtype=np.uint8)


def load_idx(images_path, labels_path, classes=None, subsample: int | None = None,
             seed: int = 0) -> Dataset:
    """Load an IDX image/label pair as a flattened Dataset.

    Pixel values are scaled to [0, 1] by /255; vectors are left raw (not
    re-normalized).  ``classes`` filters by label, ``subsample`` draws that
    many rows without replacement using the seed.  Rows are selected on the
    raw bytes, so only the kept ones are converted to float.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"image/label count mismatch: {images.shape[0]} images in "
                         f"{images_path}, {labels.shape[0]} labels in {labels_path}")
    pixels = images.reshape(images.shape[0], -1)
    if classes is not None:
        keep = np.isin(labels, list(classes))
        pixels, labels = pixels[keep], labels[keep]
    if subsample is not None:
        if subsample > labels.shape[0]:
            raise ValueError(f"subsample n = {subsample} is larger than the "
                             f"{labels.shape[0]} rows kept from {images_path}")
        idx = np.sort(np.random.default_rng(seed).choice(
            labels.shape[0], size=subsample, replace=False))
        pixels, labels = pixels[idx], labels[idx]
    points = pixels.astype(float)
    points /= 255.0
    return Dataset(points=points, targets=labels.astype(float), distribution_tag="external")
