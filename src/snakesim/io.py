"""Binary container formats and volume ingestion.

Three little-endian formats are defined here, each read with one check
of its magic and fixed fields, so a file too short to hold them raises
:class:`FormatError`:

* ``SNKV1`` -- a flat float32 volume: magic, dims (3 x u32), voxel size
  (3 x f32), then row-major (C-order) f32 data.
* ``SNKT1`` -- a k-space trajectory: magic, u32 n_shots, u32
  samples_per_shot, u8 n_dims (2 or 3), f32 dwell_time_us, f32
  tr_shot_ms, followed per shot by samples x n_dims f32 coordinates in
  cycles/FOV.
* ``SNKD1`` -- a k-space dataset: magic, u32 length-prefixed canonical
  JSON header, then per frame, per coil, per shot, complex f32
  interleaved (re, im): one C-order complex64 array of shape
  (n_frames, n_coils, P), P the samples of one frame, written a frame
  at a time under ``<name>.partial``, which takes the dataset's name
  only once complete, and read back a frame at a time.

A minimal NIfTI-1 reader (little-endian float32 only) is provided for
ingesting per-tissue fuzzy masks.
"""

from __future__ import annotations

import gzip
import json
import operator
import os
import struct
from pathlib import Path

import numpy as np

VOLUME_MAGIC = b"SNKV1"
TRAJ_MAGIC = b"SNKT1"
DATASET_MAGIC = b"SNKD1"
# header keys read_dataset needs to shape the body
_DATASET_KEYS = ("n_frames", "n_coils", "n_shots_per_frame", "samples_per_shot")


class FormatError(ValueError):
    """Raised when a binary file does not conform to its declared format."""


def canonical_json(obj) -> str:
    """Serialize ``obj`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fields(path, head, magic, fmt):
    """The struct ``fmt`` fields after ``magic`` at the start of ``head``, bytes
    of file ``path``; :class:`FormatError` if the magic differs or they do not fit."""
    if head[:len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {head[:len(magic)]!r}")
    if len(head) < (need := len(magic) + struct.calcsize(fmt)):
        raise FormatError(f"{path}: truncated header ({len(head)} bytes, need {need})")
    return struct.unpack_from(fmt, head, len(magic))


def _check_body(path, have, need):
    """:class:`FormatError` unless the body of file ``path``, ``have`` bytes,
    is the ``need`` bytes its header predicts."""
    if have < need:
        raise FormatError(f"{path}: truncated body ({have} bytes, the header predicts {need})")
    if have > need:
        raise FormatError(f"{path}: {have - need} bytes after the {need} body bytes "
                          "the header predicts")


# ---------------------------------------------------------------------------
# SNKV1 volumes


def write_volume(path, data, voxel_size=(1.0, 1.0, 1.0)):
    data = np.asarray(data, dtype="<f4")
    if data.ndim != 3:
        raise FormatError(f"SNKV1 stores 3D volumes, got ndim={data.ndim}")
    with open(path, "wb") as f:
        f.write(VOLUME_MAGIC)
        f.write(struct.pack("<3I", *data.shape))
        f.write(struct.pack("<3f", *voxel_size))
        f.write(np.ascontiguousarray(data))


def read_volume(path):
    """Read an SNKV1 volume. Returns ``(data, voxel_size)``. A bad magic,
    a file shorter than its header, or a body shorter or longer than the
    dims predict raises :class:`FormatError`."""
    raw = Path(path).read_bytes()
    fields = _fields(path, raw, VOLUME_MAGIC, "<3I3f")
    dims, voxel_size, n = fields[:3], fields[3:], int(np.prod(fields[:3]))
    _check_body(path, len(raw) - 29, 4 * n)
    return np.frombuffer(raw, "<f4", n, 29).reshape(dims), voxel_size


# ---------------------------------------------------------------------------
# NIfTI-1 (read-only, little-endian float32)

_NIFTI_FLOAT32 = 16


def read_nifti(path):
    """Read a little-endian float32 NIfTI-1 volume (.nii or .nii.gz).

    Returns ``(data, voxel_size)`` with data as a 3D float32 array. A
    header whose sizes past the third are not all 1, a file of more than
    one volume, raises :class:`FormatError`.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as f:
        header = f.read(348)
        if len(header) < 348:
            raise FormatError(f"{path}: truncated NIfTI header")
        sizeof_hdr = struct.unpack_from("<i", header, 0)[0]
        if sizeof_hdr != 348:
            raise FormatError(f"{path}: not a little-endian NIfTI-1 file")
        magic = header[344:348]
        if magic not in (b"n+1\x00", b"ni1\x00"):
            raise FormatError(f"{path}: bad NIfTI magic {magic!r}")
        dim = struct.unpack_from("<8h", header, 40)
        if dim[0] < 3:
            raise FormatError(f"{path}: expected a 3D volume, ndim={dim[0]}")
        if any(n > 1 for n in dim[4:dim[0] + 1]):
            raise FormatError(f"{path}: holds more than one volume, dims {dim[1:dim[0] + 1]}")
        datatype = struct.unpack_from("<h", header, 70)[0]
        if datatype != _NIFTI_FLOAT32:
            raise FormatError(f"{path}: only float32 NIfTI supported (datatype={datatype})")
        pixdim = struct.unpack_from("<8f", header, 76)
        vox_offset = int(struct.unpack_from("<f", header, 108)[0])
        shape = tuple(dim[1:4])
        f.read(max(0, vox_offset - 348))
        n = int(np.prod(shape))
        body = f.read(4 * n)
        if len(body) < 4 * n:
            raise FormatError(f"{path}: truncated NIfTI body")
        # NIfTI stores data Fortran-ordered (x fastest).
        data = np.frombuffer(body, dtype="<f4").reshape(shape, order="F")
    return np.ascontiguousarray(data), tuple(pixdim[1:4])


def load_volume_file(path):
    """Dispatch on extension: .nii/.nii.gz -> NIfTI, otherwise SNKV1."""
    name = str(path)
    if name.endswith(".nii") or name.endswith(".nii.gz"):
        return read_nifti(path)
    return read_volume(path)


# ---------------------------------------------------------------------------
# SNKT1 trajectories


def write_trajectory(path, shots_points, dwell_time_us, tr_shot_ms):
    """Write shot coordinate arrays (each samples x ndims) to SNKT1."""
    shots = [np.asarray(p, dtype=np.float64) for p in shots_points]
    if not shots or len(shots[0]) == 0:
        raise FormatError("cannot write an empty trajectory")
    samples, ndims = shots[0].shape
    if ndims not in (2, 3):
        raise FormatError(f"n_dims must be 2 or 3, got {ndims}")
    if not dwell_time_us > 0:
        raise FormatError(f"dwell time must be positive, got {dwell_time_us}")
    for i, p in enumerate(shots):
        if p.shape != (samples, ndims):
            raise FormatError(f"shot {i} shape {p.shape} != {(samples, ndims)}")
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<IIBff", len(shots), samples, ndims,
                            float(dwell_time_us), float(tr_shot_ms)))
        for p in shots:
            f.write(p.astype("<f4").tobytes(order="C"))


def read_trajectory(path):
    """Read an SNKT1 file.

    Returns ``(shots, dwell_time_us, tr_shot_ms)`` where shots is a list
    of (samples, ndims) float64 arrays, the row views of one (n_shots,
    samples, ndims) array. A bad magic, a file shorter than its header, a
    body shorter or longer than the header predicts, an empty trajectory
    or an n_dims other than 2 or 3 raises :class:`FormatError`.
    """
    raw = Path(path).read_bytes()
    n_shots, samples, ndims, dwell_us, tr_ms = _fields(path, raw, TRAJ_MAGIC, "<IIBff")
    if n_shots == 0 or samples == 0:
        raise FormatError(f"{path}: empty trajectory ({n_shots} shots of {samples} samples)")
    if ndims not in (2, 3):
        raise FormatError(f"{path}: n_dims must be 2 or 3, got {ndims}")
    offset, count = 5 + struct.calcsize("<IIBff"), n_shots * samples * ndims
    _check_body(path, len(raw) - offset, 4 * count)
    points = np.frombuffer(raw, "<f4", count, offset).reshape(n_shots, samples, ndims)
    return list(points.astype(np.float64)), float(dwell_us), float(tr_ms)


# ---------------------------------------------------------------------------
# SNKD1 k-space dataset container


class DatasetWriter:
    """Streaming writer for the SNKD1 container.

    Opening removes any dataset already at ``path`` and starts
    ``<path>.partial`` with the header. Shot sample blocks are appended
    to it in plan order, and a close after every expected block renames
    it to ``path``. So a dataset exists at ``path`` only when complete,
    and a writer closed early leaves ``<path>.partial`` with the header
    and every appended byte.
    """

    def __init__(self, path, header: dict):
        self.path = Path(path)
        self._partial = self.path.with_name(self.path.name + ".partial")
        self._expected = int(header["n_frames"]) * int(header["n_coils"]) \
            * int(header["n_shots_per_frame"])
        self._written = 0
        self.path.unlink(missing_ok=True)
        self._f = open(self._partial, "wb")
        blob = canonical_json(header).encode()
        self._f.write(DATASET_MAGIC + struct.pack("<I", len(blob)) + blob)

    def append(self, samples):
        """Append one (coil, shot) sample vector as interleaved complex f32."""
        self._f.write(np.ascontiguousarray(samples, dtype="<c8"))
        self._written += 1

    def close(self):
        if self._f.closed:
            return
        self._f.close()
        if self._written == self._expected:
            os.replace(self._partial, self.path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


class DatasetReader:
    """The read-only body of an SNKD1 container, read from the file as it
    is indexed.

    ``reader[t]`` reads frame t, and only it, into a fresh complex64
    (n_coils, P) array (``reader[t, ...]`` then indexes that frame), and
    ``np.asarray(reader)`` reads the whole (n_frames, n_coils, P) body.
    Each read opens the file, reads one byte range and closes it, so the
    reader holds neither a file nor a memory map.
    """

    dtype = np.dtype(np.complex64)

    def __init__(self, path, offset, shape):
        self.path, self.offset, self.shape = Path(path), offset, shape

    def __len__(self):
        return self.shape[0]

    def _read(self, start, count):
        data = np.fromfile(self.path, dtype="<c8", count=count, offset=self.offset + 8 * start)
        if data.size != count:
            raise FormatError(f"{self.path}: body ends {count - data.size} samples early")
        return data

    def __getitem__(self, key):
        t, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        t, n = operator.index(t), len(self)
        if not -n <= t < n:
            raise IndexError(f"frame {t} out of range for {n} frames")
        size = self.shape[1] * self.shape[2]
        return self._read(size * (t % n), size).reshape(self.shape[1:])[rest]

    def __array__(self, dtype=None, copy=None):
        data = self._read(0, int(np.prod(self.shape))).reshape(self.shape)
        return data if dtype is None else data.astype(dtype, copy=False)


def _is_count(value):
    """Whether a JSON value is a non-negative int (a JSON true is not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def read_dataset(path):
    """Read an SNKD1 container.

    Returns ``(header, kdata)``, kdata a :class:`DatasetReader` of the
    body: one C-order complex64 array of shape (n_frames, n_coils, P),
    P = sum(samples_per_shot), of which ``kdata[t]`` reads frame t from
    the file. A bad magic, a file shorter than its header length field,
    a header that is not a UTF-8 JSON object, lacks a key or holds a
    count (``n_frames``, ``n_coils``, ``n_shots_per_frame``,
    ``samples_per_shot`` or an entry of its list) that is not a
    non-negative int, a body shorter or longer than the header predicts,
    or the ``partial`` marker with which earlier versions closed an
    incomplete dataset raises :class:`FormatError`.
    """
    with open(path, "rb") as f:
        (length,) = _fields(path, f.read(9), DATASET_MAGIC, "<I")
        try:
            header = json.loads(f.read(length).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: header is not UTF-8 JSON: {e}") from None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        if header.get("partial"):
            raise FormatError(f"{path}: dataset is marked partial")
        missing = [k for k in _DATASET_KEYS if k not in header]
        if missing:
            raise FormatError(f"{path}: header lacks {', '.join(missing)}")
        for key in _DATASET_KEYS:
            value = header[key]
            if not (_is_count(value) or key == "samples_per_shot" and isinstance(value, list)
                    and all(map(_is_count, value))):
                raise FormatError(f"{path}: header {key} is {value!r}, not a non-negative int"
                                  + " or a list of them" * (key == "samples_per_shot"))
        counts = header["samples_per_shot"]
        if isinstance(counts, int):
            counts = [counts] * header["n_shots_per_frame"]
        shape = (header["n_frames"], header["n_coils"], sum(counts))
        _check_body(path, os.fstat(f.fileno()).st_size - f.tell(), 8 * int(np.prod(shape)))
        offset = f.tell()
    return header, DatasetReader(path, offset, shape)
