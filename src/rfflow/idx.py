"""IDX binary format reading (MNIST-style ubyte files)."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .features import Dataset

IMAGE_MAGIC = 2051  # 0x00000803: ubyte, 3 dimensions
LABEL_MAGIC = 2049  # 0x00000801: ubyte, 1 dimension


def _read_header(path, expected_magic: int, n_dims: int):
    """The header's dimensions and the body's offset, once the file's size
    matches them: a body shorter or longer than declared is rejected."""
    head = 4 * (1 + n_dims)
    with open(path, "rb") as fh:
        header = fh.read(head)
        size = os.fstat(fh.fileno()).st_size
    if len(header) < head:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">i", header[:4])[0]
    if magic != expected_magic:
        raise ValueError(f"{path}: bad IDX magic {magic}, expected {expected_magic}")
    dims = struct.unpack(f">{n_dims}I", header[4:])
    declared, held = math.prod(dims), size - head
    if held != declared:
        kind = "truncated IDX payload" if held < declared else "IDX payload too long"
        raise ValueError(f"{path}: {kind}: the header declares {declared} bytes, "
                         f"the file holds {held}")
    return dims, head


def read_idx_images(path) -> np.ndarray:
    """Raw uint8 images of shape (count, rows, cols), mapped read-only from
    the file: only the rows a caller reads are read from disk."""
    dims, head = _read_header(path, IMAGE_MAGIC, 3)
    return np.memmap(path, dtype=np.uint8, mode="r", offset=head, shape=dims)


def read_idx_labels(path) -> np.ndarray:
    _, head = _read_header(path, LABEL_MAGIC, 1)
    return np.fromfile(path, dtype=np.uint8, offset=head)


def load_idx(images_path, labels_path, classes=None, subsample: int | None = None,
             seed: int = 0) -> Dataset:
    """Load an IDX image/label pair as a flattened Dataset.

    Pixel values are scaled to [0, 1] by /255; vectors are left raw (not
    re-normalized).  ``classes`` filters by label, ``subsample`` draws that
    many rows without replacement using the seed.  Rows are selected on the
    labels, so only the kept images are read and converted to float.  A
    ``classes`` filter that keeps no row is a ``ValueError``.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"image/label count mismatch: {images.shape[0]} images in "
                         f"{images_path}, {labels.shape[0]} labels in {labels_path}")
    rows = np.arange(labels.shape[0])
    if classes is not None:
        wanted = list(classes)
        rows = np.flatnonzero(np.isin(labels, wanted))
        if rows.size == 0:
            raise ValueError(f"{labels_path}: no label in classes {wanted}")
    if subsample is not None:
        if subsample > rows.shape[0]:
            raise ValueError(f"subsample n = {subsample} is larger than the "
                             f"{rows.shape[0]} rows kept from {images_path}")
        rows = rows[np.sort(np.random.default_rng(seed).choice(
            rows.shape[0], size=subsample, replace=False))]
    # a gather copies into a plain array, so no view of the mapping is kept
    points = np.asarray(images.reshape(images.shape[0], -1)[rows], dtype=float)
    points /= 255.0
    return Dataset(points=points, targets=labels[rows].astype(float))
