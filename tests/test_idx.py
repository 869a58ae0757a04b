import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcgate import idx


def write_images(path, images):
    idx.write_idx_images(path, np.asarray(images, dtype=np.uint8))


def test_two_image_fixture_scales_bytes(tmp_path):
    imgs = np.array([[[0, 255], [0, 255]], [[255, 0], [255, 0]]], dtype=np.uint8)
    write_images(tmp_path / "imgs", imgs)
    idx.write_idx_labels(tmp_path / "labels", [3, 7])
    x, y = idx.load_idx(tmp_path / "imgs", tmp_path / "labels")
    assert x.tolist() == [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]
    assert y.tolist() == [3, 7]


def test_label_magic_is_0x801(tmp_path):
    idx.write_idx_labels(tmp_path / "labels", [3, 7])
    raw = (tmp_path / "labels").read_bytes()
    magic, count = struct.unpack(">II", raw[:8])
    assert magic == 0x00000801
    assert count == 2
    assert raw[8:] == bytes([3, 7])


def test_image_magic_is_0x803(tmp_path):
    write_images(tmp_path / "imgs", np.zeros((1, 2, 3), dtype=np.uint8))
    raw = (tmp_path / "imgs").read_bytes()
    assert struct.unpack(">IIII", raw[:16]) == (0x00000803, 1, 2, 3)


def test_count_mismatch_is_dimension_error(tmp_path):
    write_images(tmp_path / "imgs", np.zeros((3, 2, 2), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [0, 1])
    with pytest.raises(idx.IdxDimensionError):
        idx.load_idx(tmp_path / "imgs", tmp_path / "labels")


def test_bad_magic_is_magic_error(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 2, 2) + bytes(4))
    with pytest.raises(idx.IdxMagicError):
        idx.read_idx_images(path)
    # an image file fed to the label reader is also a magic error
    write_images(tmp_path / "imgs", np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(idx.IdxMagicError):
        idx.read_idx_labels(tmp_path / "imgs")


def test_truncated_file_is_truncation_error(tmp_path):
    write_images(tmp_path / "imgs", np.zeros((2, 3, 3), dtype=np.uint8))
    whole = (tmp_path / "imgs").read_bytes()
    (tmp_path / "cut").write_bytes(whole[:-5])
    with pytest.raises(idx.IdxTruncatedError):
        idx.read_idx_images(tmp_path / "cut")
    (tmp_path / "stub").write_bytes(whole[:10])
    with pytest.raises(idx.IdxTruncatedError):
        idx.read_idx_images(tmp_path / "stub")


@pytest.mark.parametrize("reader, header", [
    (idx.read_idx_images, struct.pack(">IIII", idx.IMAGE_MAGIC, 0xFFFFFFFF, 28, 28)),
    (idx.read_idx_labels, struct.pack(">II", idx.LABEL_MAGIC, 0xFFFFFFFF)),
])
def test_forged_count_fails_before_reading(tmp_path, reader, header):
    path = tmp_path / "forged"
    path.write_bytes(header + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(idx.IdxTruncatedError, match="the file holds 64"):
            reader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trailing_byte_is_format_error(tmp_path):
    write_images(tmp_path / "imgs", np.zeros((2, 3, 3), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [1, 2])
    for name, reader in (("imgs", idx.read_idx_images), ("labels", idx.read_idx_labels)):
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(idx.IdxFormatError, match="1 trailing bytes") as exc:
            reader(path)
        assert not isinstance(exc.value, idx.IdxTruncatedError)


def test_empty_files_read_as_zero_items(tmp_path):
    write_images(tmp_path / "imgs", np.zeros((0, 3, 3), dtype=np.uint8))
    idx.write_idx_labels(tmp_path / "labels", [])
    x, y = idx.load_idx(tmp_path / "imgs", tmp_path / "labels")
    assert x.shape == (0, 9) and y.shape == (0,)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_image_round_trip(n, rows, cols, seed):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        path = f"{td}/imgs"
        idx.write_idx_images(path, imgs)
        back = idx.read_idx_images(path)
        assert back.shape == (n, rows * cols)
        assert np.array_equal(back * 255.0, imgs.reshape(n, -1).astype(float))


def test_synthetic_fixture_shapes_and_determinism(tmp_path):
    a = idx.synthesize_arrays(n_train=50, n_test=20, seed=5)
    b = idx.synthesize_arrays(n_train=50, n_test=20, seed=5)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)
    assert a.x_train.shape == (50, 784)
    assert a.n_classes == 10
    assert a.x_train.min() >= 0.0 and a.x_train.max() <= 1.0


def test_synthesized_files_round_trip(tmp_path):
    paths = idx.synthesize_idx_files(tmp_path, n_train=30, n_test=10, seed=9)
    data = idx.load_or_synthesize(paths["train_images"], paths["train_labels"],
                                  paths["test_images"], paths["test_labels"])
    direct = idx.synthesize_arrays(n_train=30, n_test=10, seed=9)
    assert np.array_equal(data.x_train, direct.x_train)
    assert np.array_equal(data.y_train, direct.y_train)


def test_load_or_synthesize_rejects_partial_paths(tmp_path):
    with pytest.raises(ValueError):
        idx.load_or_synthesize(train_images=tmp_path / "x")
