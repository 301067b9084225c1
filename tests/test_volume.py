import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from qsmkit import network, volume
from qsmkit.errors import (
    InputError,
    MalformedHeaderError,
    NonFinitePayloadError,
    PayloadSizeError,
)
from qsmkit.network import build_discriminator, build_generator, load_checkpoint, save_checkpoint
from qsmkit.training import write_csv
from qsmkit.volume import (
    Mask,
    RealVolume,
    VolumeMeta,
    forward_diff,
    forward_diff_adjoint,
    read_mask,
    read_volume,
    require_same_grid,
    write_volume,
)

META = VolumeMeta((6, 5, 4), (1.0, 1.2, 0.8), (0.0, 0.0, 1.0))


def rand_volume(meta=META, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return RealVolume(meta, scale * rng.standard_normal(meta.dims))


class TestMeta:
    def test_b0_normalized(self):
        m = VolumeMeta((4, 4, 4), (1, 1, 1), (0, 0, 2))
        assert m.b0_dir == (0.0, 0.0, 1.0)
        m = VolumeMeta((4, 4, 4), (1, 1, 1), (3, 0, 4))
        assert abs(np.linalg.norm(m.b0_dir) - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [
        dict(dims=(0, 4, 4)),
        dict(dims=(4, 4)),
        dict(voxel_size=(1, 1, 0)),
        dict(voxel_size=(1, 1, -1)),
        dict(voxel_size=(1, 1, float("inf"))),
        dict(b0_dir=(0, 0, 0)),
        dict(b0_dir=(0, 0, float("nan"))),
    ])
    def test_rejects_bad_geometry(self, bad):
        kw = dict(dims=(4, 4, 4), voxel_size=(1.0, 1.0, 1.0), b0_dir=(0, 0, 1))
        kw.update(bad)
        with pytest.raises(InputError):
            VolumeMeta(**kw)

    @pytest.mark.parametrize("dims", [(4.7, 4, 4), (4, 4, True), (4, np.True_, 4),
                                      (4, "4", 4), (4, 4, float("inf"))])
    def test_rejects_non_integral_dims(self, dims):
        with pytest.raises(InputError):
            VolumeMeta(dims, (1.0, 1.0, 1.0))

    def test_integral_dims_of_any_numeric_type(self):
        m = VolumeMeta((4.0, np.int64(5), np.float32(6)), (1.0, 1.0, 1.0))
        assert m.dims == (4, 5, 6) and all(type(d) is int for d in m.dims)

    def test_hashable(self):
        a = VolumeMeta((4, 4, 4), (1, 1, 1))
        b = VolumeMeta((4, 4, 4), (1, 1, 1))
        assert a == b and hash(a) == hash(b)


class TestContainers:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            RealVolume(META, np.zeros((6, 5, 3)))

    def test_nonfinite_rejected(self):
        bad = np.zeros(META.dims)
        bad[1, 2, 3] = np.nan
        with pytest.raises(InputError):
            RealVolume(META, bad)

    def test_immutable(self):
        v = rand_volume()
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_mask_validation(self):
        with pytest.raises(InputError):
            Mask(META, np.full(META.dims, 0.5))
        with pytest.raises(InputError):
            Mask(META, np.zeros(META.dims))
        m = np.zeros(META.dims)
        m[2, 2, 2] = 1.0
        assert Mask(META, m).count == 1

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("cls", [RealVolume, Mask])
    def test_held_in_c_order(self, cls, layout):
        base = (np.random.default_rng(4).random(META.dims) > 0.5).astype(np.float64)
        base[0, 0, 0] = 1.0
        arr = {"C": base, "F": np.asfortranarray(base),
               "strided": np.repeat(base.T, 2, axis=0)[::2].T}[layout]
        v = cls(META, arr)
        assert v.data.flags.c_contiguous and not v.data.flags.writeable
        assert v.data.tobytes() == base.tobytes()


class TestRequireSameGrid:
    def test_names_the_volume_off_grid_and_skips_none(self):
        other = VolumeMeta((6, 5, 4), (1.0, 1.0, 1.0))
        require_same_grid(META, "field", magnitude=None, mask=rand_volume())
        with pytest.raises(InputError, match="mask grid does not match field"):
            require_same_grid(META, "field", magnitude=None,
                              mask=rand_volume(other))


class TestGrad:
    def test_loop_oracle(self):
        d = rand_volume(seed=7).data
        nx, ny, nz = META.dims
        expect = [np.zeros(META.dims) for _ in range(3)]
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    if x + 1 < nx:
                        expect[0][x, y, z] = d[x + 1, y, z] - d[x, y, z]
                    if y + 1 < ny:
                        expect[1][x, y, z] = d[x, y + 1, z] - d[x, y, z]
                    if z + 1 < nz:
                        expect[2][x, y, z] = d[x, y, z + 1] - d[x, y, z]
        for ax, exp in enumerate(expect):
            np.testing.assert_array_equal(forward_diff(d, ax), exp)

    def test_constant_volume(self):
        d = np.full(META.dims, 3.7)
        for ax in range(3):
            assert not np.any(forward_diff(d, ax))

    def test_x_ramp(self):
        ramp = np.broadcast_to(
            np.arange(META.dims[0], dtype=float)[:, None, None], META.dims)
        gx, gy, gz = (forward_diff(ramp, ax) for ax in range(3))
        assert np.all(gx[:-1] == 1.0) and np.all(gx[-1] == 0.0)
        assert not np.any(gy) and not np.any(gz)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_div_is_negative_adjoint(self, seed):
        # div(g) = -sum_c forward_diff_adjoint(g_c, c)
        rng = np.random.default_rng(seed)
        u = rand_volume(seed=seed).data
        g = [rng.standard_normal(META.dims) for _ in range(3)]
        lhs = sum(np.sum(forward_diff(u, ax) * gi) for ax, gi in enumerate(g))
        div = -sum(forward_diff_adjoint(gi, ax) for ax, gi in enumerate(g))
        rhs = np.sum(u * -div)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_adjoint_identity_on_channel_axes(self, axis):
        # the (C, X, Y, Z) layout autodiff.shift_diff differentiates
        rng = np.random.default_rng(axis)
        u = rng.standard_normal((2,) + META.dims)
        g = rng.standard_normal((2,) + META.dims)
        lhs = np.sum(forward_diff(u, axis) * g)
        rhs = np.sum(u * forward_diff_adjoint(g, axis))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# The pair that allocated zeros and filled them through np.diff and two
# in-place updates, kept verbatim (under new names) as the byte oracles of
# the out= versions.
def forward_diff_allocating(arr: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(arr)
    head = [slice(None)] * arr.ndim
    head[axis] = slice(0, arr.shape[axis] - 1)
    out[tuple(head)] = np.diff(arr, axis=axis)
    return out


def forward_diff_adjoint_allocating(arr: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(arr)
    body = [slice(None)] * arr.ndim
    body[axis] = slice(0, arr.shape[axis] - 1)
    shifted = [slice(None)] * arr.ndim
    shifted[axis] = slice(1, arr.shape[axis])
    out[tuple(body)] -= arr[tuple(body)]
    out[tuple(shifted)] += arr[tuple(body)]
    return out


class TestDiffOut:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 5, 4), (2, 6, 5, 4), (1, 3, 2)])
    @pytest.mark.parametrize("op, oracle", [(forward_diff, forward_diff_allocating),
                                            (forward_diff_adjoint,
                                             forward_diff_adjoint_allocating)],
                             ids=["diff", "adjoint"])
    def test_bytes_match_allocating_pair(self, op, oracle, shape, dtype):
        # signed zeros included: 0 - (+0) and -0 + 0 decide the sign bit
        arr = np.random.default_rng(len(shape)).standard_normal(shape).astype(dtype)
        arr.flat[::5] = 0.0
        arr.flat[::7] = -0.0
        for axis in range(arr.ndim):
            want = oracle(arr, axis)
            out = np.full_like(arr, np.nan)  # every element must be written
            assert op(arr, axis, out=out) is out
            got = op(arr, axis)
            assert got.dtype == out.dtype == want.dtype
            assert out.tobytes() == got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op, oracle", [(forward_diff, forward_diff_allocating),
                                            (forward_diff_adjoint,
                                             forward_diff_adjoint_allocating)],
                             ids=["diff", "adjoint"])
    def test_any_layout(self, op, oracle):
        # a strided and a Fortran-ordered input; the result is C-ordered
        base = np.random.default_rng(5).standard_normal((4, 6, 5))
        inputs = [base[::2, :, ::-1].transpose(2, 0, 1), base, np.asfortranarray(base)]
        for arr in inputs:
            for axis in range(arr.ndim):
                want = oracle(arr, axis)
                got = op(arr, axis)
                assert got.flags.c_contiguous
                out = np.full(want.shape, np.nan)
                assert op(arr, axis, out=out) is out
                assert want.tobytes() == got.tobytes() == out.tobytes()

    @pytest.mark.parametrize("op", [forward_diff, forward_diff_adjoint], ids=["diff", "adjoint"])
    def test_out_must_be_contiguous_and_same_shape(self, op):
        arr = np.zeros((4, 5, 6))
        for out in (np.zeros((4, 5, 7))[..., :6], np.zeros((4, 6, 5)),
                    np.zeros((5, 6, 4)).transpose(2, 0, 1), np.zeros((4, 5, 6), order="F")):
            with pytest.raises(InputError, match="contiguous"):
                op(arr, 0, out=out)


class TestDBV1:
    def test_round_trip_values(self, tmp_path):
        v = rand_volume(seed=11)
        p = tmp_path / "v.dbv"
        write_volume(v, p)
        back = read_volume(p)
        assert back.meta == v.meta
        np.testing.assert_array_equal(back.data,
                                      v.data.astype("<f4").astype(np.float64))

    def test_round_trip_bytes(self, tmp_path):
        v = rand_volume(seed=12)
        p1, p2 = tmp_path / "a.dbv", tmp_path / "b.dbv"
        write_volume(v, p1)
        write_volume(read_volume(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_x_fastest_layout(self, tmp_path):
        # voxel (x,y,z) sits at flat offset x + nx*(y + ny*z)
        meta = VolumeMeta((3, 2, 2), (1, 1, 1))
        data = np.arange(12, dtype=np.float64).reshape(meta.dims)
        p = tmp_path / "v.dbv"
        write_volume(RealVolume(meta, data), p)
        raw = p.read_bytes()
        payload = np.frombuffer(raw[raw.find(b"\n") + 1:], dtype="<f4")
        nx, ny, _ = meta.dims
        for x in range(3):
            for y in range(2):
                for z in range(2):
                    assert payload[x + nx * (y + ny * z)] == data[x, y, z]

    @pytest.mark.parametrize("corrupt", ["nomagic", "badjson", "missing", "dtype", "nonewline"])
    def test_malformed_header(self, tmp_path, corrupt):
        p = tmp_path / "bad.dbv"
        if corrupt == "nomagic":
            p.write_bytes(b'{"magic": "XXXX", "dims": [2,2,2], "voxel_size_mm": [1,1,1], '
                          b'"b0_dir": [0,0,1], "dtype": "f32"}\n' + b"\x00" * 32)
        elif corrupt == "badjson":
            p.write_bytes(b"{not json\n" + b"\x00" * 32)
        elif corrupt == "missing":
            p.write_bytes(b'{"magic": "DBV1", "dims": [2,2,2]}\n' + b"\x00" * 32)
        elif corrupt == "dtype":
            p.write_bytes(b'{"magic": "DBV1", "dims": [2,2,2], "voxel_size_mm": [1,1,1], '
                          b'"b0_dir": [0,0,1], "dtype": "f64"}\n' + b"\x00" * 64)
        else:
            p.write_bytes(b'{"magic": "DBV1"')
        with pytest.raises(MalformedHeaderError):
            read_volume(p)

    def test_non_integral_dims_rejected(self, tmp_path):
        # 4.7 * 4 * 4 would truncate to a 4^3 grid that the payload fills exactly
        p = tmp_path / "bad.dbv"
        p.write_bytes(b'{"magic": "DBV1", "dims": [4.7, 4, 4], "voxel_size_mm": [1,1,1], '
                      b'"b0_dir": [0,0,1], "dtype": "f32"}\n' + b"\x00" * 4 * 64)
        with pytest.raises(MalformedHeaderError, match="dims"):
            read_volume(p)

    @pytest.mark.parametrize("delta", [-4, -1, 1, 4])
    def test_payload_size_mismatch(self, tmp_path, delta):
        v = rand_volume(seed=13)
        p = tmp_path / "v.dbv"
        write_volume(v, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:delta] if delta < 0 else raw + b"\x00" * delta)
        with pytest.raises(PayloadSizeError):
            read_volume(p)

    def test_nonfinite_payload(self, tmp_path):
        v = rand_volume(seed=14)
        p = tmp_path / "v.dbv"
        write_volume(v, p)
        raw = bytearray(p.read_bytes())
        nl = raw.index(b"\n")
        raw[nl + 1: nl + 5] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError):
            read_volume(p)

    def test_mask_round_trip(self, tmp_path):
        m = np.zeros(META.dims)
        m[1:4, 1:4, 1:3] = 1.0
        p = tmp_path / "m.dbv"
        write_volume(Mask(META, m), p)
        back = read_mask(p)
        np.testing.assert_array_equal(back.data, m)
        # a non-binary volume refuses to load as a mask
        write_volume(rand_volume(seed=3), p)
        with pytest.raises(InputError):
            read_mask(p)

    def test_read_in_c_order(self, tmp_path):
        m = np.zeros(META.dims)
        m[1:4, 2:, :3] = 1.0
        p = tmp_path / "m.dbv"
        write_volume(Mask(META, m), p)
        for v in (read_volume(p), read_mask(p)):
            assert v.data.flags.c_contiguous and not v.data.flags.writeable
            assert v.data.tobytes() == m.tobytes()


# The framing writer that cast each block whole, kept verbatim (under a new
# name) as the byte oracle of volume.write_framed, which casts in slabs.
def write_framed_whole(path, header: dict, blocks) -> None:
    """Write the DBV1/DBC1 framing: the header as one JSON line, then each
    array in ``blocks`` as raw little-endian f32 in C order."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f4"))


class TestSlabbedWriter:
    """Slabs change no byte: DBV1 volumes, one of a single slab, one of many
    and one whose every plane exceeds ``volume.SLAB_BYTES``, and both DBC1
    kinds equal the whole-block writer's files."""

    def written(self, monkeypatch, tmp_path, module, write, obj) -> list[bytes]:
        out = []
        for name, writer in (("slabs", volume.write_framed), ("whole", write_framed_whole)):
            monkeypatch.setattr(module, "write_framed", writer)
            path = tmp_path / name
            write(obj, path)
            out.append(path.read_bytes())
        return out

    @pytest.mark.parametrize("dims", [(6, 5, 4), (64, 64, 64), (300, 300, 2)])
    def test_dbv1_bytes(self, monkeypatch, tmp_path, dims):
        v = rand_volume(VolumeMeta(dims, (1.0, 1.0, 1.0)), seed=16)
        slabs, whole = self.written(monkeypatch, tmp_path, volume, write_volume, v)
        assert slabs == whole

    @pytest.mark.parametrize("model", [build_generator(), build_discriminator(seed=1)],
                             ids=["generator", "discriminator"])
    def test_dbc1_bytes(self, monkeypatch, tmp_path, model):
        slabs, whole = self.written(monkeypatch, tmp_path, network, save_checkpoint, model)
        assert slabs == whole


class FullDisk:
    """A file that accepts ``budget`` bytes, writes part of the chunk that
    crosses it, then raises ENOSPC: a write interrupted mid-payload."""

    def __init__(self, fh, budget: int):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk) -> None:
        data = memoryview(chunk).cast("B")
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        self.fh.write(data)


class TestInterruptedWrite:
    """A write that fails part way leaves the previous DBV1, DBC1 or CSV file
    byte-equal and readable, and no temporary file beside it."""

    CASES = {
        "dbv1": (write_volume, read_volume, rand_volume(seed=1), rand_volume(seed=2)),
        "dbc1": (save_checkpoint, load_checkpoint, build_generator(depth=2, seed=1),
                 build_generator(depth=2, seed=2)),
        "csv": (lambda rows, p: write_csv(p, ["a", "b"], rows), lambda p: p.read_text(),
                [(i, 0.5 * i) for i in range(50)], [(i, 0.25 * i) for i in range(60)]),
    }

    @pytest.mark.parametrize("fmt", CASES)
    @pytest.mark.parametrize("share", [0.0, 0.5])  # nothing written, or half the file
    def test_previous_file_survives(self, monkeypatch, tmp_path, fmt, share):
        write, read, old, new = self.CASES[fmt]
        path = tmp_path / f"out.{fmt}"
        write(old, path)
        before = path.read_bytes()
        budget = int(share * len(before))
        monkeypatch.setattr(volume, "open",
                            lambda f, mode: FullDisk(open(f, mode), budget), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(new, path)
        assert path.read_bytes() == before
        read(path)
        assert os.listdir(tmp_path) == [path.name]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "nodir" / "v.dbv"
        with pytest.raises(FileNotFoundError, match=re.escape(f"'{path}'") + "$"):
            write_volume(rand_volume(), path)

    def test_new_file_has_default_permissions(self, tmp_path):
        write_volume(rand_volume(), tmp_path / "v.dbv")
        (tmp_path / "plain").touch()
        mode = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("v.dbv", "plain")]
        assert mode[0] == mode[1]


class TestDBV1Memory:
    """Tracemalloc peak of one 64^3 read and one write, in float64 volumes.
    A read holds the file's bytes (half a volume), the finiteness check's
    mask (an eighth) and the C-ordered copy: 1.63, and 1.75 for a mask,
    whose 0/1 check adds boolean maps. It read 2.63 for both while the
    payload was converted twice and the mask copied from a volume. A write
    casts in slabs of ``SLAB_BYTES``: 0.07, against 0.50 when it cast the
    whole f32 block and 1.00 when ``tobytes`` copied that block again. Each
    bound sits just above the current figure."""

    META64 = VolumeMeta((64, 64, 64), (1.0, 1.0, 1.0))

    @staticmethod
    def peak_volumes(call):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (TestDBV1Memory.META64.voxel_count * 8)

    def volume(self):
        data = np.random.default_rng(15).standard_normal(self.META64.dims)
        return RealVolume(self.META64, data > 0)

    def test_write_peak(self, tmp_path):
        v = self.volume()
        assert self.peak_volumes(lambda: write_volume(v, tmp_path / "v.dbv")) <= 0.08

    @pytest.mark.parametrize("read, bound", [(read_volume, 1.7), (read_mask, 1.85)],
                             ids=["volume", "mask"])
    def test_read_peak(self, tmp_path, read, bound):
        p = tmp_path / "v.dbv"
        write_volume(self.volume(), p)
        assert self.peak_volumes(lambda: read(p)) <= bound
