import gzip
import json
import struct

import numpy as np
import pytest

from snakesim.cli import main as cli_main
from snakesim.io import (TRAJ_MAGIC, DatasetWriter, FormatError, canonical_json,
                         load_volume_file, read_dataset, read_nifti,
                         read_trajectory, read_volume, write_trajectory,
                         write_volume)
from snakesim.trajectories import load_trajectory_file


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


def test_volume_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "v.snkv"
    write_volume(path, np.zeros((2, 2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(FormatError, match="16 bytes after the 32 body bytes"):
        read_volume(path)


def _write_nifti(path, data, voxel=(2.0, 2.0, 2.0), gz=False):
    """Minimal NIfTI-1 writer used only as a test oracle; a 4D array's
    header has dim[0] = 4 and its fourth size."""
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    dims = data.shape + (1,) * (4 - data.ndim)
    struct.pack_into("<8h", header, 40, data.ndim, *dims, 1, 1, 1)
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


def test_nifti_of_more_than_one_volume_rejected(tmp_path):
    """A 2x2x2x3 file is refused; a 4D header whose fourth size is 1
    reads as its one volume."""
    path = tmp_path / "t.nii"
    _write_nifti(path, np.zeros((2, 2, 2, 3), dtype=np.float32))
    with pytest.raises(FormatError, match="more than one volume"):
        read_nifti(path)
    _write_nifti(path, np.ones((2, 2, 2, 1), dtype=np.float32))
    np.testing.assert_array_equal(read_nifti(path)[0], np.ones((2, 2, 2)))


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


def test_trajectory_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.snkt"
    write_trajectory(path, [np.zeros((8, 3))], 10.0, 50.0)
    path.write_bytes(path.read_bytes() + bytes(12))
    with pytest.raises(FormatError, match="12 bytes after the 96 body bytes"):
        read_trajectory(path)


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


@pytest.mark.parametrize("n_shots,samples", [(0, 16), (2, 0)])
def test_trajectory_empty_refused(tmp_path, capsys, n_shots, samples):
    """A header of zero shots or zero samples is a format error for the
    reader, the plan loader and ``snake traj inspect``."""
    path = tmp_path / "empty.snkt"
    path.write_bytes(TRAJ_MAGIC + struct.pack("<IIBff", n_shots, samples, 3, 10.0, 50.0))
    with pytest.raises(FormatError, match="empty trajectory"):
        read_trajectory(path)
    with pytest.raises(FormatError, match="empty trajectory"):
        load_trajectory_file(path, (8, 8, 8))
    assert cli_main(["traj", "inspect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(FormatError, match="empty trajectory"):
        write_trajectory(path, [np.zeros((samples, 3))] * n_shots, 10.0, 50.0)


@pytest.mark.parametrize("ndims", [2, 3])
def test_trajectory_shots_are_the_written_points_bit_for_bit(tmp_path, ndims):
    """Each shot read back is the written float32 coordinates as float64,
    exactly, in shot order."""
    rng = np.random.default_rng(4)
    shots = [rng.uniform(-4, 3.9, size=(6, ndims)).astype(np.float32).astype(np.float64)
             for _ in range(3)]
    path = tmp_path / "t.snkt"
    write_trajectory(path, shots, 10.0, 50.0)
    back, _, _ = read_trajectory(path)
    assert len(back) == 3
    for orig, got in zip(shots, back):
        assert got.dtype == np.float64 and np.array_equal(got, orig)


def _short_files():
    """(format, length) for every length of an SNKV1, SNKT1 and SNKD1 file
    from 0 up to one byte short of its magic and fixed header fields."""
    return [(kind, n) for kind, need in (("volume", 29), ("trajectory", 22), ("dataset", 9))
            for n in range(need)]


@pytest.mark.parametrize("kind, length", _short_files())
def test_header_shorter_than_its_fields_refused(tmp_path, kind, length):
    path = tmp_path / "f"
    if kind == "volume":
        write_volume(path, np.zeros((2, 2, 2), dtype=np.float32))
        read = read_volume
    elif kind == "trajectory":
        write_trajectory(path, [np.zeros((4, 3))], 10.0, 50.0)
        read = read_trajectory
    else:
        _full_dataset(path, _header())
        read = read_dataset
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(FormatError, match="bad magic" if length < 5 else "truncated header"):
        read(path)


@pytest.mark.parametrize("blob, message", [(b'{"n_frames": 2', "not UTF-8 JSON"),
                                           (b'{"n_frames": "\xff"}', "not UTF-8 JSON"),
                                           (b"[1, 2]", "not a JSON object")])
def test_dataset_header_not_a_json_object_refused(tmp_path, blob, message):
    path = tmp_path / "j.snkd"
    path.write_bytes(b"SNKD1" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(FormatError, match=message):
        read_dataset(path)


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


@pytest.mark.parametrize("value", ["2", -1, 2.0, True, None, [2]])
@pytest.mark.parametrize("key", ["n_frames", "n_coils", "n_shots_per_frame",
                                 "samples_per_shot"])
def test_dataset_count_not_a_non_negative_int_rejected(tmp_path, key, value):
    """Each count the body is shaped from must be a non-negative int (or,
    for samples_per_shot, a list of them): anything else raises one
    FormatError naming the key, before the body is sized."""
    header = _header()
    path = tmp_path / "c.snkd"
    body = _full_dataset(path, header)[9 + len(canonical_json(header)):]
    if key == "samples_per_shot" and value == [2]:
        value = [4, -1]
    header[key] = value
    blob = canonical_json(header).encode()
    path.write_bytes(b"SNKD1" + struct.pack("<I", len(blob)) + blob + body)
    with pytest.raises(FormatError, match=f"header {key} is {value!r}".replace("[", r"\[")):
        read_dataset(path)


def test_dataset_samples_per_shot_list_accepted(tmp_path):
    """samples_per_shot may list each shot's samples."""
    header = _header()
    path = tmp_path / "l.snkd"
    body = _full_dataset(path, header)[9 + len(canonical_json(header)):]
    header["samples_per_shot"] = [4, 4]
    blob = canonical_json(header).encode()
    path.write_bytes(b"SNKD1" + struct.pack("<I", len(blob)) + blob + body)
    assert read_dataset(path)[1].shape == (2, 2, 8)


def test_dataset_closed_early_stays_partial(tmp_path):
    """A writer closed before every expected block leaves ``<path>.partial``,
    holding the header and every appended byte, and nothing at ``path``."""
    path = tmp_path / "p.snkd"
    header = _header()
    blocks = [np.arange(4) + 1j * k for k in range(3)]
    with DatasetWriter(path, header) as w:
        for block in blocks:
            w.append(block)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.snkd.partial"]
    raw = (tmp_path / "p.snkd.partial").read_bytes()
    hlen = struct.unpack_from("<I", raw, 5)[0]
    assert raw[:5] == b"SNKD1" and json.loads(raw[9:9 + hlen]) == header
    assert raw[9 + hlen:] == np.concatenate(blocks).astype("<c8").tobytes()


def test_dataset_complete_leaves_only_path(tmp_path):
    path = tmp_path / "c.snkd"
    _full_dataset(path, _header())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.snkd"]
    assert read_dataset(path)[1].shape == (2, 2, 8)


def test_dataset_writer_removes_existing_dataset(tmp_path):
    """Opening a writer over a dataset removes it, so a run that then
    fails leaves no earlier run's dataset under the name."""
    path = tmp_path / "o.snkd"
    _full_dataset(path, _header())
    w = DatasetWriter(path, _header())
    assert not path.exists()
    w.close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.snkd.partial"]


def test_dataset_marked_partial_refused(tmp_path):
    """A dataset that an earlier version closed incomplete carries a
    ``partial`` marker in its header and is refused."""
    header = {**_header(), "partial": True}
    path = tmp_path / "m.snkd"
    blob = canonical_json(header).encode()
    path.write_bytes(b"SNKD1" + struct.pack("<I", len(blob)) + blob + bytes(8 * 2 * 2 * 8))
    with pytest.raises(FormatError, match="partial"):
        read_dataset(path)


def test_dataset_reader_reads_one_frame_at_a_time(tmp_path):
    """``kdata[t]`` reads frame t into a fresh complex64 (L, P) array, an
    out-of-range t raises IndexError, ``np.asarray`` reads the whole body,
    and the reader takes no assignment."""
    path = tmp_path / "m.snkd"
    blocks = [np.full(4, k + 1j, dtype=np.complex64) for k in range(8)]
    with DatasetWriter(path, _header()) as w:
        for block in blocks:
            w.append(block)
    _, kdata = read_dataset(path)
    assert kdata.shape == (2, 2, 8) and kdata.dtype == np.complex64 and len(kdata) == 2
    run = np.concatenate(blocks).reshape(2, 2, 8)
    for t in (0, 1, -1):
        frame = kdata[t]
        assert type(frame) is np.ndarray and frame.dtype == np.complex64
        assert frame.flags.writeable and frame.shape == (2, 8)
        np.testing.assert_array_equal(frame, run[t])
    for t in (2, -3):
        with pytest.raises(IndexError):
            kdata[t]
    whole = np.asarray(kdata)
    assert whole.dtype == np.complex64
    np.testing.assert_array_equal(whole, run)
    with pytest.raises(TypeError):
        kdata[0] = 0


def test_dataset_header_round_trips_bit_exact(tmp_path):
    header = _header()
    path = tmp_path / "h.snkd"
    with DatasetWriter(path, header) as w:
        for _ in range(8):
            w.append(np.zeros(4, dtype=np.complex64))
    raw = path.read_bytes()
    hlen = struct.unpack_from("<I", raw, 5)[0]
    assert raw[9:9 + hlen].decode() == canonical_json(header)
