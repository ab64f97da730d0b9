import gzip
import json
import struct

import numpy as np
import pytest

from snakesim.io import (DatasetWriter, FormatError, canonical_json,
                         load_volume_file, read_dataset, read_nifti,
                         read_trajectory, read_volume, write_trajectory,
                         write_volume)


def test_canonical_json_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4, 5, 6)).astype(np.float32)
    path = tmp_path / "v.snkv"
    write_volume(path, data, voxel_size=(3.0, 3.0, 2.5))
    back, vs = read_volume(path)
    np.testing.assert_array_equal(back, data)
    assert vs == pytest.approx((3.0, 3.0, 2.5))


def test_volume_bad_magic(tmp_path):
    path = tmp_path / "bad.snkv"
    path.write_bytes(b"NOPE!" + b"\0" * 40)
    with pytest.raises(FormatError):
        read_volume(path)


def test_volume_truncated(tmp_path):
    path = tmp_path / "v.snkv"
    write_volume(path, np.zeros((4, 4, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FormatError, match="truncated"):
        read_volume(path)


def _write_nifti(path, data, voxel=(2.0, 2.0, 2.0), gz=False):
    """Minimal NIfTI-1 writer used only as a test oracle."""
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    dims = data.shape
    struct.pack_into("<8h", header, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, 16)  # float32
    struct.pack_into("<h", header, 72, 32)  # bitpix
    struct.pack_into("<8f", header, 76, 0.0, voxel[0], voxel[1], voxel[2], 0, 0, 0, 0)
    struct.pack_into("<f", header, 108, 352.0)  # vox_offset
    header[344:348] = b"n+1\0"
    blob = bytes(header) + b"\0\0\0\0" + np.asarray(data, "<f4").tobytes(order="F")
    if gz:
        path.write_bytes(gzip.compress(blob))
    else:
        path.write_bytes(blob)


def test_nifti_read(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((3, 4, 5)).astype(np.float32)
    path = tmp_path / "t.nii"
    _write_nifti(path, data, voxel=(1.5, 2.0, 2.5))
    back, vs = read_nifti(path)
    np.testing.assert_allclose(back, data, rtol=1e-6)
    assert vs == pytest.approx((1.5, 2.0, 2.5))


def test_nifti_gz_via_dispatch(tmp_path):
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "t.nii.gz"
    _write_nifti(path, data, gz=True)
    back, _ = load_volume_file(path)
    np.testing.assert_allclose(back, data, rtol=1e-6)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    shots = [rng.uniform(-4, 3.9, size=(16, 3)) for _ in range(5)]
    path = tmp_path / "t.snkt"
    write_trajectory(path, shots, dwell_time_us=10.0, tr_shot_ms=50.0)
    back, dwell, tr = read_trajectory(path)
    assert dwell == pytest.approx(10.0)
    assert tr == pytest.approx(50.0)
    assert len(back) == 5
    for orig, got in zip(shots, back):
        np.testing.assert_allclose(got, orig, atol=1e-6)


def test_trajectory_2d_supported(tmp_path):
    shots = [np.zeros((4, 2))]
    path = tmp_path / "t2.snkt"
    write_trajectory(path, shots, 10.0, 50.0)
    back, _, _ = read_trajectory(path)
    assert back[0].shape == (4, 2)


def test_trajectory_truncated(tmp_path):
    path = tmp_path / "t.snkt"
    write_trajectory(path, [np.zeros((8, 3))], 10.0, 50.0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_trajectory(path)


def _header(n_frames=2, n_coils=2, n_shots=2, samples=4):
    return {"n_frames": n_frames, "n_coils": n_coils,
            "n_shots_per_frame": n_shots, "samples_per_shot": samples}


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    header = _header()
    path = tmp_path / "d.snkd"
    blocks = []
    with DatasetWriter(path, header) as w:
        for _ in range(2 * 2 * 2):
            y = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).astype(np.complex64)
            blocks.append(y)
            w.append(y)
    back_header, frames = read_dataset(path)
    for key, val in header.items():
        assert back_header[key] == val
    assert frames.shape == (2, 2, 8) and frames.dtype == np.complex64
    i = 0
    for t in range(2):
        for l in range(2):
            for s in range(2):
                np.testing.assert_array_equal(frames[t, l, 4 * s:4 * s + 4], blocks[i])
                i += 1


def _full_dataset(path, header):
    with DatasetWriter(path, header) as w:
        for _ in range(2 * 2 * 2):
            w.append(np.ones(4, dtype=np.complex64))
    return path.read_bytes()


def test_dataset_short_body_rejected(tmp_path):
    path = tmp_path / "s.snkd"
    path.write_bytes(_full_dataset(path, _header())[:-8])
    with pytest.raises(FormatError, match="truncated"):
        read_dataset(path)


def test_dataset_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "l.snkd"
    path.write_bytes(_full_dataset(path, _header()) + bytes(16))
    with pytest.raises(FormatError, match="16 bytes after"):
        read_dataset(path)


@pytest.mark.parametrize("key", ["n_frames", "n_coils", "n_shots_per_frame",
                                 "samples_per_shot"])
def test_dataset_missing_header_key_rejected(tmp_path, key):
    header = _header()
    path = tmp_path / "k.snkd"
    body = _full_dataset(path, header)[9 + len(canonical_json(header)):]
    del header[key]
    blob = canonical_json(header).encode()
    path.write_bytes(b"SNKD1" + struct.pack("<I", len(blob)) + blob + body)
    with pytest.raises(FormatError, match=key):
        read_dataset(path)


def test_dataset_partial_marker(tmp_path):
    path = tmp_path / "p.snkd"
    w = DatasetWriter(path, _header())
    w.append(np.zeros(4, dtype=np.complex64))
    w.close()
    raw = path.read_bytes()
    hlen = struct.unpack_from("<I", raw, 5)[0]
    header = json.loads(raw[9:9 + hlen])
    assert header["partial"] is True
    with pytest.raises(FormatError, match="partial"):
        read_dataset(path)


def test_dataset_partial_rewrite_keeps_body(tmp_path):
    """The partial rewrite keeps every appended byte and leaves no other file."""
    path = tmp_path / "p.snkd"
    blocks = [np.arange(4) + 1j * k for k in range(3)]
    with DatasetWriter(path, _header()) as w:
        for block in blocks:
            w.append(block)
    raw = path.read_bytes()
    hlen = struct.unpack_from("<I", raw, 5)[0]
    assert raw[9 + hlen:] == np.concatenate(blocks).astype("<c8").tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["p.snkd"]


def test_dataset_reads_as_read_only_memmap(tmp_path):
    path = tmp_path / "m.snkd"
    with DatasetWriter(path, _header()) as w:
        for k in range(8):
            w.append(np.full(4, k + 1j, dtype=np.complex64))
    _, kdata = read_dataset(path)
    assert isinstance(kdata, np.memmap) and not kdata.flags.writeable
    assert kdata.dtype == np.complex64
    assert np.array_equal(kdata.ravel(), np.repeat(np.arange(8) + 1j, 4))


def test_dataset_header_round_trips_bit_exact(tmp_path):
    header = _header()
    path = tmp_path / "h.snkd"
    with DatasetWriter(path, header) as w:
        for _ in range(8):
            w.append(np.zeros(4, dtype=np.complex64))
    raw = path.read_bytes()
    hlen = struct.unpack_from("<I", raw, 5)[0]
    assert raw[9:9 + hlen].decode() == canonical_json(header)
