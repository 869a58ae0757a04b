import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_oracle
from arcgate import idx


def write_images(path, images):
    idx.write_idx_images(path, np.asarray(images, dtype=np.uint8))


def test_two_image_fixture_scales_bytes(tmp_path):
    imgs = np.array([[[0, 255], [0, 255]], [[255, 0], [255, 0]]], dtype=np.uint8)
    write_images(tmp_path / "imgs", imgs)
    idx.write_idx_labels(tmp_path / "labels", [3, 7])
    x, y = idx.load_idx(tmp_path / "imgs", tmp_path / "labels")
    assert np.asarray(x).tolist() == [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]
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


def test_image_read_peak_stays_near_its_result(tmp_path):
    imgs = np.random.default_rng(6).integers(0, 256, (500, 28, 28), dtype=np.uint8)
    write_images(tmp_path / "imgs", imgs)
    tracemalloc.start()
    try:
        x = idx.read_idx_images(tmp_path / "imgs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.asarray(x).tobytes() == (imgs.reshape(500, 784) / 255.0).tobytes()
    assert peak <= 1.2 * x.pixels.nbytes, peak / x.pixels.nbytes


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
    with tempfile.TemporaryDirectory() as td:
        path = f"{td}/imgs"
        idx.write_idx_images(path, imgs)
        back = idx.read_idx_images(path)
        assert back.shape == (n, rows * cols)
        assert np.array_equal(np.asarray(back) * 255.0, imgs.reshape(n, -1).astype(float))


@st.composite
def idx_sets(draw):
    """A small image array and its labels, as uint8."""
    n, rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pixels = draw(st.binary(min_size=n * rows * cols, max_size=n * rows * cols))
    labels = draw(st.binary(min_size=n, max_size=n))
    return (np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows, cols),
            np.frombuffer(labels, dtype=np.uint8))


def _loads_or_raises_a_format_error(images_path, labels_path):
    try:
        x, y = idx.load_idx(images_path, labels_path)
    except idx.IdxFormatError:
        return
    assert x.shape[0] == y.shape[0]
    x = np.asarray(x)
    assert np.all((x >= 0.0) & (x <= 1.0))


@given(idx_sets(), st.data())
@settings(max_examples=30, deadline=None)
def test_every_truncation_and_byte_change_loads_or_raises_a_format_error(pair, data):
    images, labels = pair
    with tempfile.TemporaryDirectory() as td:
        paths = (Path(td, "images"), Path(td, "labels"))
        write_images(paths[0], images)
        idx.write_idx_labels(paths[1], labels)
        for path in paths:
            whole = path.read_bytes()
            for size in range(len(whole)):
                path.write_bytes(whole[:size])
                _loads_or_raises_a_format_error(*paths)
            for pos in range(len(whole)):
                flip = data.draw(st.integers(1, 255), label=f"{path.name}[{pos}] xor")
                path.write_bytes(whole[:pos] + bytes([whole[pos] ^ flip]) + whole[pos + 1:])
                _loads_or_raises_a_format_error(*paths)
            path.write_bytes(whole)


def test_synthetic_fixture_shapes_and_determinism(tmp_path):
    a = idx.synthesize_arrays(n_train=50, n_test=20, seed=5)
    b = idx.synthesize_arrays(n_train=50, n_test=20, seed=5)
    x = np.asarray(a.x_train)
    assert np.array_equal(x, np.asarray(b.x_train))
    assert np.array_equal(a.y_test, b.y_test)
    assert x.shape == a.x_train.shape == (50, 784)
    assert a.n_classes == 10
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_synthesized_files_round_trip(tmp_path):
    paths = idx.synthesize_idx_files(tmp_path, n_train=30, n_test=10, seed=9)
    data = idx.load_or_synthesize(paths["train_images"], paths["train_labels"],
                                  paths["test_images"], paths["test_labels"])
    direct = idx.synthesize_arrays(n_train=30, n_test=10, seed=9)
    assert np.array_equal(np.asarray(data.x_train), np.asarray(direct.x_train))
    assert np.array_equal(data.y_train, direct.y_train)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_train": -5}, "n_train must be >= 0, got -5"),
    ({"n_test": -1}, "n_test must be >= 0, got -1"),
    ({"seed": -1}, "seed must be >= 0, got -1")])
def test_synthesis_rejects_a_negative_count_or_seed(tmp_path, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        idx.synthesize_arrays(**kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        idx.synthesize_idx_files(tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()


def test_synthesis_allows_zero_rows():
    data = idx.synthesize_arrays(n_train=0, n_test=0)
    assert data.x_train.shape == data.x_test.shape == (0, 784)
    assert data.y_train.shape == data.y_test.shape == (0,)


def test_load_or_synthesize_rejects_partial_paths(tmp_path):
    with pytest.raises(ValueError):
        idx.load_or_synthesize(train_images=tmp_path / "x")


@st.composite
def rows_and_selectors(draw):
    """A small uint8 matrix and row selectors of every kind an ndarray takes."""
    n, width = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    u8 = np.frombuffer(draw(st.binary(min_size=n * width, max_size=n * width)),
                       dtype=np.uint8).reshape(n, width)
    bounds = st.none() | st.integers(-8, 8)
    kinds = [st.builds(slice, bounds, bounds, st.none() | st.integers(-3, 3).filter(bool)),
             st.just(np.array([], dtype=np.intp)), st.just(slice(0, 0)),
             st.lists(st.booleans(), min_size=n, max_size=n)
             .map(lambda mask: np.array(mask, dtype=bool))]
    if n:
        ints = st.integers(-n, n - 1)       # negative entries count from the end
        kinds += [ints, st.lists(ints, max_size=8).map(lambda k: np.array(k, dtype=np.intp)),
                  st.tuples(ints, st.integers(-width, width - 1))]
    return u8, draw(st.lists(st.one_of(kinds), min_size=1, max_size=6))


@given(rows_and_selectors())
@settings(max_examples=150, deadline=None)
def test_pixel_rows_read_as_their_scaled_bytes(case):
    u8, selectors = case
    rows = idx.PixelRows(u8)
    want = u8.astype(np.float64) / 255.0
    assert rows.shape == u8.shape and len(rows) == u8.shape[0] and rows.ndim == 2
    whole = np.asarray(rows)
    assert whole.dtype == np.float64 and whole.tobytes() == want.tobytes()
    for sel in selectors:
        got = rows[sel]
        if isinstance(sel, (int, tuple)):      # an int row or a single pixel: its floats
            assert got.dtype == np.float64 and got.shape == want[sel].shape
            assert got.tobytes() == want[sel].tobytes()
            assert not np.shares_memory(got, u8)
            continue
        assert isinstance(got, idx.PixelRows)
        assert got.pixels.tobytes() == u8[sel].tobytes()
        assert np.asarray(got).tobytes() == want[sel].tobytes()
        # a basic slice is a view of the bytes; an index array or a mask copies them
        assert np.shares_memory(got.pixels, u8) == (isinstance(sel, slice) and got.pixels.size > 0)


def test_pixel_rows_are_read_only_bytes(tmp_path):
    imgs = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_images(tmp_path / "imgs", imgs)
    rows = idx.read_idx_images(tmp_path / "imgs")
    assert rows.pixels.dtype == np.uint8 and rows.pixels.tobytes() == imgs.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rows.pixels[0, 0] = 1
    with pytest.raises(ValueError, match="always a copy"):
        np.asarray(rows, copy=False)
    assert np.asarray(rows, dtype=np.float32).dtype == np.float32
    mine = np.zeros((2, 3), dtype=np.uint8)
    idx.PixelRows(mine)
    mine[0, 0] = 7                                   # the caller's array stays writable
    for bad in (mine.astype(np.float64), mine[0], [[1, 2]]):
        with pytest.raises(ValueError, match="2-D uint8"):
            idx.PixelRows(bad)


def test_synthesized_files_hold_the_fixture_bytes(tmp_path):
    paths = idx.synthesize_idx_files(tmp_path, n_train=30, n_test=10, seed=9)
    direct = idx.synthesize_arrays(n_train=30, n_test=10, seed=9)
    for split, rows in (("train", direct.x_train), ("test", direct.x_test)):
        raw = paths[f"{split}_images"].read_bytes()
        assert raw[16:] == rows.pixels.tobytes()


def test_a_row_slice_of_the_desk_split_copies_no_pixels(desk_dataset):
    tracemalloc.start()
    try:
        head = desk_dataset.x_train[:640]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head.shape == (640, 784)
    assert peak < 1024, peak


def test_synthesis_keeps_one_row_block_of_floats():
    tracemalloc.start()
    try:
        idx.synthesize_arrays()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak       # 4.7 MB of result plus one block's floats


@pytest.mark.parametrize("seed", [2024, 9, 77])
@pytest.mark.parametrize("n_train, n_test", [(0, 0), (1, 0), (0, 1), (255, 257), (256, 256),
                                             (257, 255), (5000, 1000)])
def test_synthesis_matches_the_whole_split_oracle(seed, n_train, n_test):
    got = idx.synthesize_arrays(n_train=n_train, n_test=n_test, seed=seed)
    want = synth_oracle.synthesize_arrays(n_train=n_train, n_test=n_test, seed=seed)
    for x, x_want in ((got.x_train, want.x_train), (got.x_test, want.x_test)):
        assert x.shape == x_want.shape
        assert x.pixels.tobytes() == x_want.pixels.tobytes()
    for y, y_want in ((got.y_train, want.y_train), (got.y_test, want.y_test)):
        assert y.dtype == y_want.dtype and np.array_equal(y, y_want)


@pytest.mark.parametrize("writer, values, message", [
    (idx.write_idx_labels, [2.7, 1.2], "integer dtype, got float64"),
    (idx.write_idx_labels, np.array([1, 0], dtype=bool), "integer dtype, got bool"),
    (idx.write_idx_images, np.full((1, 2, 2), 0.5), "integer dtype, got float64"),
    (idx.write_idx_labels, [7, 300, -1], r"value 300 at index 1 is outside \[0, 255\]"),
    (idx.write_idx_labels, [7, -1], r"value -1 at index 1 is outside \[0, 255\]"),
    (idx.write_idx_images, np.array([[[0, 300]]]), r"value 300 at index \(0, 0, 1\)"),
    (idx.write_idx_images, np.array([[[0, 1]], [[-2, 5]]], dtype=np.int8),
     r"value -2 at index \(1, 0, 0\)"),
    (idx.write_idx_labels, np.zeros((3, 2), dtype=np.uint8),
     r"expected \(n,\) labels, got shape \(3, 2\)"),
    (idx.write_idx_images, np.zeros((3, 4), dtype=np.uint8),
     r"expected \(n, rows, cols\) array, got shape \(3, 4\)"),
])
def test_writers_refuse_values_a_byte_does_not_hold(tmp_path, writer, values, message):
    with pytest.raises(ValueError, match=message):
        writer(tmp_path / "out", values)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("writer, values", [
    (idx.write_idx_labels, [0, 255, 7]),
    (idx.write_idx_labels, []),
    (idx.write_idx_images, np.array([[[0, 255]], [[128, 1]]], dtype=np.int64)),
    (idx.write_idx_images, np.zeros((0, 2, 2))),
])
def test_writers_take_integer_bytes_and_empty_sequences(tmp_path, writer, values):
    writer(tmp_path / "out", values)
    reader = idx.read_idx_labels if writer is idx.write_idx_labels else idx.read_idx_images
    back = reader(tmp_path / "out")
    stored = back if writer is idx.write_idx_labels else back.pixels
    assert stored.tolist() == np.asarray(values).reshape(stored.shape).tolist()
