"""Binary container formats and volume ingestion.

Three little-endian formats are defined here:

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
  at a time and read back as a memory map.

A minimal NIfTI-1 reader (little-endian float32 only) is provided for
ingesting per-tissue fuzzy masks.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

VOLUME_MAGIC = b"SNKV1"
TRAJ_MAGIC = b"SNKT1"
DATASET_MAGIC = b"SNKD1"
# header keys read_dataset needs to shape the body
_DATASET_KEYS = ("n_frames", "n_coils", "n_shots_per_frame", "samples_per_shot")
# bytes per read when a partial dataset's body is copied
_COPY_CHUNK = 1 << 20


class FormatError(ValueError):
    """Raised when a binary file does not conform to its declared format."""


def canonical_json(obj) -> str:
    """Serialize ``obj`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# SNKV1 volumes


def write_volume(path, data, voxel_size=(1.0, 1.0, 1.0)):
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 3:
        raise FormatError(f"SNKV1 stores 3D volumes, got ndim={data.ndim}")
    with open(path, "wb") as f:
        f.write(VOLUME_MAGIC)
        f.write(struct.pack("<3I", *data.shape))
        f.write(struct.pack("<3f", *voxel_size))
        f.write(data.astype("<f4").tobytes(order="C"))


def read_volume(path):
    """Read an SNKV1 volume. Returns ``(data, voxel_size)``."""
    raw = Path(path).read_bytes()
    if raw[:5] != VOLUME_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:5]!r}")
    dims = struct.unpack_from("<3I", raw, 5)
    voxel_size = struct.unpack_from("<3f", raw, 17)
    n = int(np.prod(dims))
    body = raw[29:]
    if len(body) < 4 * n:
        raise FormatError(f"{path}: truncated body ({len(body)} bytes, need {4 * n})")
    data = np.frombuffer(body[: 4 * n], dtype="<f4").reshape(dims)
    return np.ascontiguousarray(data), voxel_size


# ---------------------------------------------------------------------------
# NIfTI-1 (read-only, little-endian float32)

_NIFTI_FLOAT32 = 16


def read_nifti(path):
    """Read a little-endian float32 NIfTI-1 volume (.nii or .nii.gz).

    Returns ``(data, voxel_size)`` with data as a 3D float32 array.
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
    if not shots:
        raise FormatError("cannot write an empty trajectory")
    samples, ndims = shots[0].shape
    if ndims not in (2, 3):
        raise FormatError(f"n_dims must be 2 or 3, got {ndims}")
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
    of (samples, ndims) float arrays.
    """
    raw = Path(path).read_bytes()
    if raw[:5] != TRAJ_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:5]!r}")
    n_shots, samples, ndims, dwell_us, tr_ms = struct.unpack_from("<IIBff", raw, 5)
    if ndims not in (2, 3):
        raise FormatError(f"{path}: n_dims must be 2 or 3, got {ndims}")
    offset = 5 + struct.calcsize("<IIBff")
    per_shot = samples * ndims * 4
    if len(raw) - offset < n_shots * per_shot:
        raise FormatError(f"{path}: truncated body, expected {n_shots * per_shot} bytes")
    shots = []
    for s in range(n_shots):
        block = raw[offset + s * per_shot: offset + (s + 1) * per_shot]
        pts = np.frombuffer(block, dtype="<f4").reshape(samples, ndims).astype(np.float64)
        shots.append(pts)
    return shots, float(dwell_us), float(tr_ms)


# ---------------------------------------------------------------------------
# SNKD1 k-space dataset container


class DatasetWriter:
    """Streaming writer for the SNKD1 container.

    Appends shot sample blocks in plan order. The header is written
    up-front; if the writer is closed before all expected shots were
    appended, the header is rewritten with a ``partial`` marker.
    """

    def __init__(self, path, header: dict):
        self.path = Path(path)
        self.header = dict(header)
        self._expected = int(header["n_frames"]) * int(header["n_coils"]) \
            * int(header["n_shots_per_frame"])
        self._written = 0
        self._f = open(self.path, "wb")
        self._write_header(self.header)

    def _write_header(self, header):
        blob = canonical_json(header).encode()
        self._f.write(DATASET_MAGIC)
        self._f.write(struct.pack("<I", len(blob)))
        self._f.write(blob)

    def append(self, samples):
        """Append one (coil, shot) sample vector as interleaved complex f32."""
        arr = np.asarray(samples, dtype=np.complex64)
        self._f.write(arr.astype("<c8").tobytes())
        self._written += 1

    def close(self):
        if self._f.closed:
            return
        self._f.close()
        if self._written != self._expected:
            # rewrite the file with a partial-file marker in the header: the
            # body, up to a whole run, is copied in chunks to a sibling file
            # that then replaces it
            partial = self.path.with_name(self.path.name + ".partial")
            with open(self.path, "rb") as src, open(partial, "wb") as self._f:
                src.seek(9 + len(canonical_json(self.header).encode()))
                self._write_header({**self.header, "partial": True})
                shutil.copyfileobj(src, self._f, _COPY_CHUNK)
            os.replace(partial, self.path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


def read_dataset(path):
    """Read an SNKD1 container.

    Returns ``(header, kdata)``, kdata a read-only ``np.memmap`` of the
    body: one C-order complex64 array of shape (n_frames, n_coils, P),
    P = sum(samples_per_shot), read from the file as it is indexed. A
    bad magic, a partial marker, a missing header key, or a body shorter
    or longer than the header predicts raises :class:`FormatError`.
    """
    with open(path, "rb") as f:
        prefix = f.read(9)
        if prefix[:5] != DATASET_MAGIC or len(prefix) < 9:
            raise FormatError(f"{path}: bad magic {prefix[:5]!r}")
        header = json.loads(f.read(struct.unpack_from("<I", prefix, 5)[0]).decode())
        if header.get("partial"):
            raise FormatError(f"{path}: dataset is marked partial")
        missing = [k for k in _DATASET_KEYS if k not in header]
        if missing:
            raise FormatError(f"{path}: header lacks {', '.join(missing)}")
        counts = header["samples_per_shot"]
        if isinstance(counts, int):
            counts = [counts] * header["n_shots_per_frame"]
        shape = (header["n_frames"], header["n_coils"], sum(counts))
        need = 8 * int(np.prod(shape))
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < need:
            raise FormatError(f"{path}: truncated frame data ({have} body bytes, "
                              f"the header predicts {need})")
        if have > need:
            raise FormatError(f"{path}: {have - need} bytes after the "
                              f"{need} body bytes the header predicts")
        offset = f.tell()
    return header, np.memmap(path, dtype="<c8", mode="r", offset=offset, shape=shape)
