"""3D volume containers, the one grid-equality check, the forward-difference
operator pair, DBV1 file I/O, the framing it shares with DBC1 checkpoints and
the package's one file writer, which replaces a file only once the new one is
complete.

Arrays are indexed ``[x, y, z]`` with shape ``(nx, ny, nz)``. Every volume is
C-ordered in memory (``RealVolume`` converts it); a file stays x-fastest on
disk (a Fortran-order ravel of that indexing), so voxel ``(x, y, z)`` sits at
flat offset ``x + nx*(y + ny*z)``. Physics runs in float64; files store f32.

``forward_diff`` and its adjoint are the package's only finite differences:
the MEDI weights and regularizer and the autodiff ``shift_diff`` (TV and
gradient-difference losses) all use them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InputError,
    MalformedHeaderError,
    NonFinitePayloadError,
    PayloadSizeError,
)

DBV1_MAGIC = "DBV1"
SLAB_BYTES = 1 << 17  # the most f32 bytes write_framed casts at once


@dataclass(frozen=True)
class VolumeMeta:
    """Grid geometry: dims in voxels, voxel size in mm, unit main-field direction.

    ``b0_dir`` is normalized at construction; a zero or non-finite vector is
    rejected. Instances are hashable and usable as cache keys.
    """

    dims: tuple[int, int, int]
    voxel_size: tuple[float, float, float]
    b0_dir: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        try:
            raw = tuple(self.dims)
            dims = tuple(int(d) for d in raw)
            voxel = tuple(float(s) for s in self.voxel_size)
            b0 = np.asarray(self.b0_dir, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad volume geometry: {exc}") from exc
        if (len(dims) != 3 or any(d < 1 for d in dims)
                or any(isinstance(r, (bool, np.bool_)) or r != d for r, d in zip(raw, dims))):
            raise InputError(f"dims must be three positive integers, got {self.dims}")
        if len(voxel) != 3 or any(not (np.isfinite(s) and s > 0) for s in voxel):
            raise InputError(f"voxel_size must be three positive reals, got {self.voxel_size}")
        if b0.shape != (3,) or not np.all(np.isfinite(b0)):
            raise InputError(f"b0_dir must be a finite 3-vector, got {self.b0_dir}")
        norm = float(np.linalg.norm(b0))
        if norm == 0.0:
            raise InputError("b0_dir must be nonzero")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "voxel_size", voxel)
        object.__setattr__(self, "b0_dir", tuple(float(c) for c in b0 / norm))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def fov_mm(self) -> tuple[float, float, float]:
        return tuple(n * s for n, s in zip(self.dims, self.voxel_size))


@dataclass(frozen=True)
class RealVolume:
    """Immutable float64 scalar field on the grid ``meta``, copied to C order."""

    meta: VolumeMeta
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.shape != self.meta.dims:
            raise InputError(f"data shape {arr.shape} does not match dims {self.meta.dims}")
        if not np.all(np.isfinite(arr)):
            raise InputError("volume contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class Mask(RealVolume):
    """Binary region of interest; every voxel exactly 0 or 1, at least one set."""

    def __post_init__(self) -> None:
        super().__post_init__()
        arr = self.data
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise InputError("mask voxels must be exactly 0 or 1")
        if not np.any(arr):
            raise InputError("mask is empty")

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.data))


def require_same_grid(meta: VolumeMeta, against: str, /, **volumes) -> None:
    """Reject any keyword input (a volume, mask or kernel; None is skipped)
    whose grid is not ``meta``, the grid of the input named ``against``."""
    for name, vol in volumes.items():
        if vol is not None and vol.meta != meta:
            raise InputError(f"{name} grid does not match {against}: inputs "
                             f"must share one grid geometry")


def _axis_views(arr: np.ndarray, axis: int, out: np.ndarray | None):
    """``(out, a, o, a3, o3, step)``: ``out`` (C-contiguous, allocated if
    None), then ``arr`` and ``out`` flat in C order and as (outer, n, inner)
    around ``axis``, whose neighbours lie ``step`` elements apart when flat."""
    out = np.empty_like(arr, order="C") if out is None else out
    if out.shape != arr.shape or not out.flags.c_contiguous:
        raise InputError(f"out must be a C-contiguous array of shape {arr.shape}")
    axis = np.lib.array_utils.normalize_axis_index(axis, arr.ndim)
    n, step = arr.shape[axis], int(np.prod(arr.shape[axis + 1:]))
    a, o = np.ravel(arr), out.reshape(-1)  # ravel copies only a non-C-contiguous arr
    return out, a, o, a.reshape(-1, n, step), o.reshape(-1, n, step), step


def forward_diff(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Forward difference ``arr[i+1] - arr[i]`` along ``axis``, any rank.

    The last slice is 0 (replicate, i.e. Neumann, boundary). ``arr`` may have
    any layout; the result goes to ``out`` if given (C-contiguous, not
    overlapping ``arr``), which is returned. One contiguous pass subtracts the
    flat array from itself ``step`` elements on; the last face is rewritten.
    """
    out, a, o, _, o3, step = _axis_views(arr, axis, out)
    np.subtract(a[step:], a[:a.size - step], out=o[:o.size - step])
    o3[:, -1] = 0
    return out


def forward_diff_adjoint(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose of ``forward_diff``: ``<forward_diff(u), g> == <u, adjoint(g)>``.

    ``out[i] = arr[i-1] - arr[i]``, reading ``arr`` as 0 before its first
    slice and on its last slice (the one ``forward_diff`` never writes),
    evaluated as ``(0 - arr[i]) + arr[i-1]``: ``0 - arr[0]`` on the first
    face and ``0 + arr[n-2]`` on the last. ``arr`` may have any layout; the
    result goes to ``out`` if given (C-contiguous, not overlapping ``arr``),
    which is returned. Two contiguous passes cover the interior; then both
    faces are rewritten.
    """
    out, a, o, a3, o3, step = _axis_views(arr, axis, out)
    np.subtract(0, a, out=o)
    o[step:] += a[:a.size - step]
    if a3.shape[1] == 1:
        o.fill(0)
    else:
        np.subtract(0, a3[:, 0], out=o3[:, 0])
        np.add(0, a3[:, -2], out=o3[:, -1])
    return out


def write_file(path: str | Path, write) -> None:
    """Call ``write(fh)`` on a new binary file and put it in place of ``path``
    only once ``write`` returns: the file is a temporary one in the same
    directory, which ``os.replace`` then moves over ``path``. On any error the
    temporary file is removed and ``path`` keeps its previous contents."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the target, not the temporary file
        raise
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def write_framed(path: str | Path, header: dict, blocks) -> None:
    """Write the DBV1/DBC1 framing: the header as one JSON line, then each
    array in ``blocks`` (at least 1-d) as raw little-endian f32 in C order,
    cast in slabs along its first axis of about ``SLAB_BYTES`` each."""
    def write(fh) -> None:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for block in blocks:
            rows = max(1, SLAB_BYTES * len(block) // max(1, 4 * block.size))
            for i in range(0, len(block), rows):
                fh.write(np.ascontiguousarray(block[i:i + rows], dtype="<f4"))

    write_file(path, write)


def read_framed(path: str | Path, magic: str, fields, parse):
    """Read a file written by ``write_framed``; return ``(obj, payload)``.

    The header must carry ``magic`` and every key in ``fields``; then
    ``parse(header)`` returns ``(obj, count)``, raising MalformedHeaderError
    for a header it rejects. The payload must hold exactly ``count`` finite
    f32 values (PayloadSizeError, NonFinitePayloadError otherwise).
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise MalformedHeaderError(f"{path}: no header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: unparseable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise MalformedHeaderError(f"{path}: missing or wrong magic")
    for key in fields:
        if key not in header:
            raise MalformedHeaderError(f"{path}: header missing field {key!r}")
    obj, count = parse(header)
    if len(raw) - nl - 1 != count * 4:
        raise PayloadSizeError(
            f"{path}: payload is {len(raw) - nl - 1} bytes, header implies {count * 4}")
    flat = np.frombuffer(raw, dtype="<f4", offset=nl + 1)
    if not np.all(np.isfinite(flat)):
        raise NonFinitePayloadError(f"{path}: payload contains non-finite values")
    return obj, flat


def write_volume(v: RealVolume, path: str | Path) -> None:
    """Serialize to DBV1: one-line JSON header, newline, raw little-endian f32."""
    meta = v.meta
    write_framed(path, {"magic": DBV1_MAGIC, "dims": list(meta.dims),
                        "voxel_size_mm": list(meta.voxel_size),
                        "b0_dir": list(meta.b0_dir), "dtype": "f32"},
                 [v.data.T])  # C order of the transpose is x-fastest


def _read_dbv1(path: str | Path, cls: type[RealVolume]) -> RealVolume:
    """Parse a DBV1 file into ``cls``, which converts the payload in one copy."""
    def parse(header: dict) -> tuple[VolumeMeta, int]:
        if header["dtype"] != "f32":
            raise MalformedHeaderError(f"{path}: unsupported dtype {header['dtype']!r}")
        try:
            meta = VolumeMeta(tuple(header["dims"]), tuple(header["voxel_size_mm"]),
                              tuple(header["b0_dir"]))
        except (InputError, TypeError) as exc:
            raise MalformedHeaderError(f"{path}: bad geometry fields: {exc}") from exc
        return meta, meta.voxel_count

    meta, flat = read_framed(path, DBV1_MAGIC,
                             ("dims", "voxel_size_mm", "b0_dir", "dtype"), parse)
    return cls(meta, flat.reshape(meta.dims, order="F"))  # the x-fastest file as a view


def read_volume(path: str | Path) -> RealVolume:
    """Parse a DBV1 file.

    Raises MalformedHeaderError, PayloadSizeError, or NonFinitePayloadError
    for the three documented failure classes.
    """
    return _read_dbv1(path, RealVolume)


def read_mask(path: str | Path) -> Mask:
    return _read_dbv1(path, Mask)
