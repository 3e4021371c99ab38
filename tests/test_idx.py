import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfflow import idx


def _write_idx(path, magic, array):
    """An IDX file: the big-endian magic and dimensions, then the uint8 bytes."""
    path.write_bytes(struct.pack(f">{1 + array.ndim}i", magic, *array.shape) + array.tobytes())


def _write_pair(tmp_path, images, labels):
    img_path = tmp_path / "imgs-idx3-ubyte"
    lab_path = tmp_path / "labs-idx1-ubyte"
    _write_idx(img_path, idx.IMAGE_MAGIC, images)
    _write_idx(lab_path, idx.LABEL_MAGIC, labels)
    return img_path, lab_path


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
    labels = np.array([0, 1], dtype=np.uint8)
    img_path, lab_path = _write_pair(tmp_path, images, labels)
    assert np.array_equal(idx.read_idx_images(img_path), images)
    assert np.array_equal(idx.read_idx_labels(lab_path), labels)
    # header bytes are exactly the IDX magic constants
    raw = img_path.read_bytes()
    assert raw[:4] == bytes([0, 0, 8, 3])
    assert lab_path.read_bytes()[:4] == bytes([0, 0, 8, 1])


def test_label_magic_rejected_on_image_path(tmp_path):
    path = tmp_path / "bad"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2i", idx.LABEL_MAGIC, 0))
    with pytest.raises(ValueError, match="magic"):
        idx.read_idx_images(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4i", idx.IMAGE_MAGIC, 2, 4, 4))
        fh.write(b"\x00" * 10)  # needs 32
    with pytest.raises(ValueError, match="truncated"):
        idx.read_idx_images(path)


def test_long_payload_rejected(tmp_path):
    path = tmp_path / "long"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4i", idx.IMAGE_MAGIC, 2, 4, 4))
        fh.write(b"\x00" * 40)  # needs 32
    with pytest.raises(ValueError, match="too long: the header declares 32 bytes, "
                                         "the file holds 40"):
        idx.read_idx_images(path)


def test_payload_size_is_checked_before_the_images_are_mapped(tmp_path):
    # np.memmap's own "mmap length is greater than file size" never reaches a user
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    img_path, lab_path = _write_pair(tmp_path, images, np.array([0, 1], dtype=np.uint8))
    img_path.write_bytes(img_path.read_bytes()[:-10])
    with pytest.raises(ValueError) as info:
        idx.load_idx(img_path, lab_path)
    assert str(info.value) == (f"{img_path}: truncated IDX payload: the header declares "
                               f"32 bytes, the file holds 22")


def test_load_idx_returns_plain_arrays_and_keeps_no_mapping(tmp_path):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(12, 3, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2] * 4, dtype=np.uint8)
    img_path, lab_path = _write_pair(tmp_path, images, labels)
    data = idx.load_idx(img_path, lab_path, classes=(0, 1), subsample=5, seed=1)
    for array in (data.points, data.targets):
        assert type(array) is np.ndarray and array.base is None
    maps = Path("/proc/self/maps")
    if maps.exists():  # Linux lists every live mapping of the process
        assert str(img_path) not in maps.read_text()


def test_count_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    labels = np.array([1, 0], dtype=np.uint8)
    img_path, lab_path = _write_pair(tmp_path, images, labels)
    with pytest.raises(ValueError, match="mismatch"):
        idx.load_idx(img_path, lab_path)


def test_load_scales_filters_and_subsamples(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(20, 3, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2] * 6 + [0, 1], dtype=np.uint8)
    img_path, lab_path = _write_pair(tmp_path, images, labels)

    data = idx.load_idx(img_path, lab_path)
    assert data.points.shape == (20, 9)
    assert data.points.min() >= 0.0 and data.points.max() <= 1.0

    two_class = idx.load_idx(img_path, lab_path, classes=(0, 1))
    assert set(np.unique(two_class.targets)) <= {0.0, 1.0}
    assert two_class.count == 14

    sub = idx.load_idx(img_path, lab_path, classes=(0, 1), subsample=5, seed=3)
    assert sub.count == 5
    sub2 = idx.load_idx(img_path, lab_path, classes=(0, 1), subsample=5, seed=3)
    assert sub.points.tobytes() == sub2.points.tobytes()

    with pytest.raises(ValueError, match="subsample"):
        idx.load_idx(img_path, lab_path, classes=(2,), subsample=10)
    with pytest.raises(ValueError, match=r"no label in classes \[3, 7\]") as exc:
        idx.load_idx(img_path, lab_path, classes=(3, 7))
    assert str(lab_path) in str(exc.value)


def _convert_then_filter(images, labels, classes, subsample, seed):
    """The loader's former order: every image to float, then row selection."""
    points = images.reshape(images.shape[0], -1).astype(float) / 255.0
    values = labels.astype(float)
    if classes is not None:
        keep = np.isin(labels, list(classes))
        points, values = points[keep], values[keep]
    if subsample is not None:
        rows = np.sort(np.random.default_rng(seed).choice(
            points.shape[0], size=subsample, replace=False))
        points, values = points[rows], values[rows]
    return points, values


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_idx_matches_convert_then_filter(tmp_path, data):
    count = data.draw(st.integers(1, 40), label="count")
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="shape")
    labels = np.array(data.draw(st.lists(st.integers(0, 9), min_size=count,
                                         max_size=count), label="labels"), dtype=np.uint8)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="pixels"))
    images = rng.integers(0, 256, size=(count, *shape), dtype=np.uint8)
    classes = data.draw(st.none() | st.sets(st.integers(0, 9), min_size=1), label="classes")
    available = count if classes is None else int(np.isin(labels, list(classes)).sum())
    subsample = data.draw(st.none() | st.integers(0, available), label="subsample")
    seed = data.draw(st.integers(0, 1000), label="seed")
    img_path, lab_path = _write_pair(tmp_path, images, labels)
    if available == 0:  # the filter keeps no row: an error, not an empty dataset
        with pytest.raises(ValueError, match="no label in classes"):
            idx.load_idx(img_path, lab_path, classes=classes, subsample=subsample, seed=seed)
        return

    got = idx.load_idx(img_path, lab_path, classes=classes, subsample=subsample, seed=seed)
    points, values = _convert_then_filter(images, labels, classes, subsample, seed)
    assert got.points.shape == points.shape
    assert got.points.tobytes() == points.tobytes()
    assert got.targets.tobytes() == values.tobytes()
