"""Autodiff engine: forward values against loop oracles, backward against
central differences, and the bookkeeping rules (liveness, accumulation,
finite checks)."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qsmkit import autodiff as ad
from qsmkit.autodiff import (
    Tensor,
    _node,
    backward,
    check_gradients,
    numeric_gradient,
    zero_grads,
)
from qsmkit.dipole import apply_spectrum, build_dipole
from qsmkit.errors import InputError, NumericalError
from qsmkit.gradcheck import (
    F32_TOL,
    F64_TOL,
    FAMILIES,
    FUSED,
    OPS,
    _even_spectrum,
    build_case,
    run_suite,
)
from qsmkit.losses import total_generator_loss
from qsmkit.network import (
    LEAKY_SLOPE,
    build_discriminator,
    build_generator,
    forward_discriminator,
    forward_generator,
)
from qsmkit.volume import VolumeMeta


class TestTensor:
    def test_default_dtype_is_single(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_double_preserved(self):
        t = Tensor(np.arange(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([1.0, np.inf])

    def test_locked_input_copied(self):
        arr = np.ones(4, dtype=np.float32)
        arr.setflags(write=False)
        t = Tensor(arr)
        t.data[0] = 5.0
        assert arr[0] == 1.0

    def test_detach_is_constant(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad and d._parents == () and not d._live

    def test_item(self):
        assert Tensor(2.5).item() == 2.5


class TestBackwardMechanics:
    def test_scalar_required(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(InputError):
            backward(t)

    def test_diamond_graph_single_visit(self):
        # f = sum(x*x + x*x) so df/dx = 4x; double-counting a shared node
        # would give 8x
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        y = ad.mul(x, x)
        f = ad.tsum(ad.add(y, y))
        backward(f)
        np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-6)

    def test_grad_accumulates_across_calls(self):
        x = Tensor([2.0], requires_grad=True)
        f = ad.tsum(ad.mul(x, x))
        backward(f)
        backward(f)
        np.testing.assert_allclose(x.grad, [8.0], rtol=1e-6)
        zero_grads([x])
        assert x.grad is None

    def test_detach_blocks_flow(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        f = ad.tsum(ad.mul(y.detach(), x))
        backward(f)
        # only the direct factor contributes, the detached x^2 is a constant
        np.testing.assert_allclose(x.grad, x.data ** 2, rtol=1e-6)

    def test_constant_branch_untracked(self):
        a = Tensor([3.0])
        x = Tensor([1.0], requires_grad=True)
        c = ad.mul(a, a)
        assert not c._live and c._parents == ()
        f = ad.tsum(ad.add(c, x))
        backward(f)
        assert a.grad is None
        np.testing.assert_allclose(x.grad, [1.0])

    def test_nonfinite_op_raises(self):
        a = Tensor([1.0])
        b = Tensor([0.0])
        with pytest.raises(NumericalError):
            ad.div(a, b)

    def test_gradcheck_requires_flow(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericalError):
            check_gradients(lambda: ad.tsum(ad.mul(x, x)), [y])


class TestGradcheckStep:
    @pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_step_rejected_before_any_probe(self, h):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        with pytest.raises(InputError, match=rf"^h must be > 0 and finite, got {h}$"):
            check_gradients(lambda: ad.tsum(ad.mul(x, x)), [x], h=h)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])

    def test_probe_restored_when_objective_raises(self):
        x = Tensor([1.0, 2.0], dtype=np.float64)

        def f():
            raise NumericalError("objective failed")

        with pytest.raises(NumericalError):
            numeric_gradient(f, x, [1], 1e-3)
        np.testing.assert_array_equal(x.data, [1.0, 2.0])


class TestBroadcastGrads:
    def test_channel_affine_analytic(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True, dtype=np.float64)
        gamma = Tensor(rng.normal(size=(3, 1, 1, 1)), requires_grad=True,
                       dtype=np.float64)
        beta = Tensor(rng.normal(size=(3, 1, 1, 1)), requires_grad=True,
                      dtype=np.float64)
        w = rng.normal(size=(3, 2, 2, 2))
        f = ad.tsum(ad.mul(ad.add(ad.mul(x, gamma), beta), Tensor(w)))
        backward(f)
        np.testing.assert_allclose(x.grad, w * gamma.data, rtol=1e-12)
        np.testing.assert_allclose(
            gamma.grad, (w * x.data).sum(axis=(1, 2, 3), keepdims=True), rtol=1e-12)
        np.testing.assert_allclose(
            beta.grad, w.sum(axis=(1, 2, 3), keepdims=True), rtol=1e-12)

    def test_scalar_broadcast(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
        s = Tensor(2.0, requires_grad=True, dtype=np.float64)
        backward(ad.tsum(ad.mul(x, s)))
        np.testing.assert_allclose(s.grad, np.array(6.0))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


def conv3d_loop(x: np.ndarray, w: np.ndarray, b, stride: int, pad: int) -> np.ndarray:
    c_in, xs, ys, zs = x.shape
    c_out, _, k1, k2, k3 = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    ox = (xs + 2 * pad - k1) // stride + 1
    oy = (ys + 2 * pad - k2) // stride + 1
    oz = (zs + 2 * pad - k3) // stride + 1
    out = np.zeros((c_out, ox, oy, oz))
    for o in range(c_out):
        for ix in range(ox):
            for iy in range(oy):
                for iz in range(oz):
                    acc = 0.0
                    for c in range(c_in):
                        for i in range(k1):
                            for j in range(k2):
                                for l in range(k3):
                                    acc += (xp[c, ix * stride + i, iy * stride + j,
                                               iz * stride + l] * w[o, c, i, j, l])
                    out[o, ix, iy, iz] = acc + (0.0 if b is None else b[o])
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,pad,k,with_bias", [
        (1, 0, 3, True),
        (1, 1, 3, True),
        (1, 2, 3, True),
        (2, 1, 3, False),
        (2, 0, 3, True),
        (1, 0, 1, True),
        (2, 1, 4, True),
        (3, 0, 2, True),
    ])
    def test_matches_loop_oracle(self, stride, pad, k, with_bias):
        rng = np.random.default_rng(stride * 100 + pad * 10 + k)
        x = rng.normal(size=(2, 6, 5, 4))
        w = rng.normal(size=(3, 2, k, k, k))
        b = rng.normal(size=3) if with_bias else None
        got = ad.conv3d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                        None if b is None else Tensor(b, dtype=np.float64),
                        stride=stride, pad=pad)
        want = conv3d_loop(x, w, b, stride, pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 4, 4))
        w = np.zeros((3, 3, 1, 1, 1))
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        out = ad.conv3d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        np.testing.assert_allclose(out.data, x, rtol=1e-15)

    def test_ones_kernel_counts_neighbourhood(self):
        x = Tensor(np.ones((1, 5, 5, 5)), dtype=np.float64)
        w = Tensor(np.ones((1, 1, 3, 3, 3)), dtype=np.float64)
        out = ad.conv3d(x, w, stride=1, pad=0)
        assert out.data[0, 1, 1, 1] == 27.0

    def test_bad_args(self):
        x = Tensor(np.zeros((2, 4, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3, 3)))
        with pytest.raises(InputError):
            ad.conv3d(x, Tensor(np.zeros((3, 5, 3, 3, 3))))  # channel mismatch
        with pytest.raises(InputError):
            ad.conv3d(x, w, stride=0)
        with pytest.raises(InputError):
            ad.conv3d(x, Tensor(np.zeros((3, 2, 1, 1, 1))), pad=1)  # pad > k-1
        with pytest.raises(InputError):
            ad.conv3d(x, Tensor(np.zeros((3, 2, 5, 5, 5))))  # kernel too large
        with pytest.raises(InputError):
            ad.conv3d(x, w, Tensor(np.zeros(4)))  # bias shape


def conv3d_einsum(x: Tensor, w: Tensor, b: Tensor | None = None,
                  stride: int = 1, pad: int = 0) -> Tensor:
    """The original einsum-over-sliding-windows conv3d, kept as an oracle for
    the patch-matrix op (forward and all three gradients)."""
    c_in, xs, ys, zs = x.data.shape
    c_out, c_in_w, k1, k2, k3 = w.data.shape

    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k1, k2, k3), axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    y = np.einsum("cxyzijl,ocijl->oxyz", win, w.data, optimize=True)
    if b is not None:
        y = y + b.data[:, None, None, None]

    def back(g):
        grad_w = np.einsum("cxyzijl,oxyz->ocijl", win, g, optimize=True)
        grad_b = None if b is None else g.sum(axis=(1, 2, 3))
        # transposed convolution for grad_x: dilate by stride, pad by k-1,
        # append the remainder columns no window covered, flip the kernel
        ox, oy, oz = g.shape[1:]
        gd = np.zeros((c_out, (ox - 1) * stride + 1, (oy - 1) * stride + 1,
                       (oz - 1) * stride + 1), dtype=g.dtype)
        gd[:, ::stride, ::stride, ::stride] = g
        rem = [(n + 2 * pad - k) % stride for n, k in zip((xs, ys, zs), (k1, k2, k3))]
        gp = np.pad(gd, ((0, 0),
                         (k1 - 1, k1 - 1 + rem[0]),
                         (k2 - 1, k2 - 1 + rem[1]),
                         (k3 - 1, k3 - 1 + rem[2])))
        w_flip = w.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
        wing = sliding_window_view(gp, (k1, k2, k3), axis=(1, 2, 3))
        gx_full = np.einsum("oxyzijl,coijl->cxyz", wing, w_flip, optimize=True)
        grad_x = gx_full[:, pad:pad + xs, pad:pad + ys, pad:pad + zs]
        if b is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b

    parents = (x, w) if b is None else (x, w, b)
    return _node(y, parents, back)


def instance_norm_composite(x: Tensor, gamma: Tensor, beta: Tensor,
                            eps: float = 1e-5) -> Tensor:
    """The original ten-node instance_norm, kept as an oracle for the fused op."""
    mu = ad.tmean(x, axis=(1, 2, 3), keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=(1, 2, 3), keepdims=True)
    inv = ad.div(ad._as_tensor(1.0, x), ad.sqrt(ad.add(var, ad._as_tensor(eps, x))))
    return ad.add(ad.mul(ad.mul(centered, inv), gamma), beta)


def _assert_close(got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    """Relative agreement, with an absolute floor at rtol times the array's
    scale for entries that cancel to near zero."""
    assert got.shape == want.shape and got.dtype == want.dtype
    scale = float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


class TestConvOracle:
    """The patch-matrix conv3d against the einsum oracle, forward and every
    gradient, in float64."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad,with_bias", [
        # the (stride, pad, k, bias) configs of TestConvForward
        ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 0, True),
        ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 1, True),
        ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 2, True),
        ((2, 6, 5, 4), (3, 2, 3, 3, 3), 2, 1, False),
        ((2, 6, 5, 4), (3, 2, 3, 3, 3), 2, 0, True),
        ((2, 6, 5, 4), (3, 2, 1, 1, 1), 1, 0, True),
        ((2, 6, 5, 4), (3, 2, 4, 4, 4), 2, 1, True),
        ((2, 6, 5, 4), (3, 2, 2, 2, 2), 3, 0, True),
        # the network's own layers at small channel counts
        ((2, 8, 8, 8), (3, 2, 4, 4, 4), 2, 1, True),   # discriminator layer
        ((3, 2, 2, 2), (1, 3, 4, 4, 4), 1, 1, True),   # discriminator head
        ((2, 8, 8, 8), (3, 2, 3, 3, 3), 2, 1, True),   # generator down
        ((3, 6, 6, 6), (1, 3, 1, 1, 1), 1, 0, True),   # generator head
    ], ids=["k3s1p0", "k3s1p1", "k3s1p2", "k3s2p1-nobias", "k3s2p0", "k1s1p0",
            "k4s2p1", "k2s3p0", "disc-layer", "disc-head", "gen-down", "gen-head"])
    def test_matches_einsum(self, x_shape, w_shape, stride, pad, with_bias):
        rng = np.random.default_rng([stride, pad, w_shape[2], x_shape[1]])
        leaves = [rng.normal(size=x_shape), rng.normal(size=w_shape)]
        if with_bias:
            leaves.append(rng.normal(size=w_shape[0]))

        def run(op):
            ts = [Tensor(a, requires_grad=True, dtype=np.float64) for a in leaves]
            out = op(*ts[:2], ts[2] if with_bias else None, stride=stride, pad=pad)
            g = np.random.default_rng(1).normal(size=out.shape)
            return out, out._backward(g)

        got, got_grads = run(ad.conv3d)
        want, want_grads = run(conv3d_einsum)
        _assert_close(got.data, want.data, 1e-12)
        assert len(got_grads) == len(want_grads) == len(leaves)
        for gg, wg in zip(got_grads, want_grads):
            _assert_close(np.asarray(gg), np.asarray(wg), 1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
    def test_constant_input_gets_no_input_gradient(self, stride, pad):
        # a data input (the first generator or discriminator layer) is not
        # live, so backward skips its gradient; the weight gradient stays
        rng = np.random.default_rng(stride)
        x = Tensor(rng.normal(size=(2, 6, 5, 4)), dtype=np.float64)
        w = Tensor(rng.normal(size=(3, 2, 4, 4, 4)), requires_grad=True,
                   dtype=np.float64)
        b = Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        out = ad.conv3d(x, w, b, stride=stride, pad=pad)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, grad_b = out._backward(g)
        assert grad_x is None
        x_live = Tensor(x.data, requires_grad=True, dtype=np.float64)
        want = conv3d_einsum(x_live, w, b, stride=stride, pad=pad)._backward(g)
        _assert_close(grad_w, want[1], 1e-12)
        _assert_close(grad_b, want[2], 1e-12)


def patches_per_offset(xp: np.ndarray, kernel, stride: int, out_dims) -> np.ndarray:
    """The original ``ad._patches``: one strided copy per kernel offset, kept
    as the oracle for the one-copy strided view."""
    cols = np.empty((xp.shape[0],) + tuple(kernel) + tuple(out_dims), dtype=xp.dtype)
    for off in np.ndindex(*kernel):
        cols[(slice(None),) + off] = xp[ad._window(off, stride, out_dims)]
    return cols.reshape(-1, int(np.prod(out_dims)))


def conv3d_patches(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """The stride-1 conv3d with every product taken over ``patches_per_offset``
    and ``grad_w = g2 @ P.T``: an oracle for the run-built ``ad._correlate``
    and for the weight gradient's operand order."""
    c_in, xs, ys, zs = x.data.shape
    c_out = w.data.shape[0]
    kernel = w.data.shape[2:]
    out_dims = tuple(n + 2 * pad - k + 1 for n, k in zip((xs, ys, zs), kernel))
    xp = np.pad(x.data, ((0, 0),) + ((pad, pad),) * 3)
    w2 = w.data.reshape(c_out, -1)
    y = (w2 @ patches_per_offset(xp, kernel, 1, out_dims)).reshape((c_out,) + out_dims)
    y = y + b.data[:, None, None, None]

    def back(g):
        g2 = g.reshape(c_out, -1)
        grad_w = (g2 @ patches_per_offset(xp, kernel, 1, out_dims).T).reshape(w.data.shape)
        gp = np.pad(g, ((0, 0),) + tuple((k - 1 - pad, k - 1 - pad) for k in kernel))
        w_flip = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        grad_x = (w_flip.reshape(c_in, -1) @ patches_per_offset(gp, kernel, 1, (xs, ys, zs))
                  ).reshape(c_in, xs, ys, zs)
        return grad_x, grad_w, g.sum(axis=(1, 2, 3))

    return _node(y, (x, w, b), back)


# (x shape, w shape, pad) of every stride-1 conv3d in the criterion-06
# networks (16^3 patches): U-Net levels, skip-concat decoders, the k1 head
# and the discriminator's k4 head on its 2^3 map
NET_STRIDE1 = [
    ((2, 16, 16, 16), (16, 2, 3, 3, 3), 1),
    ((16, 16, 16, 16), (16, 16, 3, 3, 3), 1),
    ((48, 16, 16, 16), (16, 48, 3, 3, 3), 1),
    ((32, 8, 8, 8), (32, 32, 3, 3, 3), 1),
    ((96, 8, 8, 8), (32, 96, 3, 3, 3), 1),
    ((64, 4, 4, 4), (64, 64, 3, 3, 3), 1),
    ((16, 16, 16, 16), (1, 16, 1, 1, 1), 0),
    ((64, 2, 2, 2), (1, 64, 4, 4, 4), 1),
]
NET_IDS = ["2-16", "16-16", "48-16", "32-32", "96-32", "64-64", "16-1k1", "64-1k4"]
# the TestConvForward grid at each stride-1 pad, and a tall grid
SMALL_STRIDE1 = [
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 0),
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1),
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 2),
    ((2, 9, 5, 4), (3, 2, 3, 3, 3), 0),
]
SMALL_IDS = ["6x5x4-p0", "6x5x4-p1", "6x5x4-p2", "9x5x4-p0"]


def _slab_planes(monkeypatch, x_shape, w_shape, pad, dtype, planes: int):
    """Set the slab budget to ``planes`` output planes of this layer's
    forward patch matrix; returns the number of forward slabs."""
    rows = int(np.prod(w_shape[1:]))
    plane = (x_shape[2] + 2 * pad) * (x_shape[3] + 2 * pad)
    monkeypatch.setattr(ad, "_SLAB_BYTES", planes * rows * plane * np.dtype(dtype).itemsize)
    ox = x_shape[1] + 2 * pad - w_shape[2] + 1
    return -(-ox // planes)


class TestConvRuns:
    """The run-built stride-1 patch matrix against ``_patches``, and the
    stride-1 conv3d against ``conv3d_patches``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,pad", [
        ((2, 16, 16, 16), (1, 2, 3, 3, 3), 1),
        ((2, 8, 8, 8), (1, 2, 3, 3, 3), 1),
        ((2, 16, 16, 16), (1, 2, 1, 1, 1), 0),
        ((2, 2, 2, 2), (1, 2, 4, 4, 4), 1),
    ] + SMALL_STRIDE1, ids=["16^3", "8^3", "16^3-k1", "2^3-k4"] + SMALL_IDS)
    @pytest.mark.parametrize("planes", [None, 2])
    def test_patch_matrix_bytes(self, monkeypatch, dtype, x_shape, w_shape, pad, planes):
        # an identity weight makes the GEMM an exact copy, so the product is
        # the patch matrix itself whatever kernel BLAS picks for its shape
        if planes is not None:
            _slab_planes(monkeypatch, x_shape, w_shape, pad, dtype, planes)
        rng = np.random.default_rng(list(x_shape) + [pad])
        xp = np.pad(rng.normal(size=x_shape).astype(dtype), ((0, 0),) + ((pad, pad),) * 3)
        kernel = w_shape[2:]
        out_dims = tuple(n - k + 1 for n, k in zip(xp.shape[1:], kernel))
        want = ad._patches(xp, kernel, 1, out_dims)
        got = ad._correlate(xp, np.eye(want.shape[0], dtype=dtype), kernel, out_dims)
        assert got.dtype == want.dtype
        assert got.reshape(want.shape).tobytes() == want.tobytes()

    @staticmethod
    def _both(x_shape, w_shape, pad, dtype):
        rng = np.random.default_rng(list(x_shape) + list(w_shape))
        leaves = [rng.normal(size=s).astype(dtype) for s in (x_shape, w_shape, w_shape[:1])]
        results = []
        for op in (ad.conv3d, conv3d_patches):
            out = op(*[Tensor(a, requires_grad=True) for a in leaves], pad=pad)
            g = np.random.default_rng(1).normal(size=out.shape).astype(dtype)
            results.append([out.data] + list(out._backward(g)))
        return results

    @pytest.mark.parametrize("x_shape,w_shape,pad", NET_STRIDE1, ids=NET_IDS)
    def test_network_layers_bytes_f32(self, x_shape, w_shape, pad):
        # the training dtype: every product of every criterion-06 stride-1
        # layer is bit-equal, which keeps seeded training runs bit-equal
        got, want = self._both(x_shape, w_shape, pad, np.float32)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("x_shape,w_shape,pad", NET_STRIDE1 + SMALL_STRIDE1,
                             ids=NET_IDS + SMALL_IDS)
    @pytest.mark.parametrize("planes", [None, 2])
    def test_matches_patches(self, monkeypatch, dtype, rtol, x_shape, w_shape, pad, planes):
        # y and grad_x go through one GEMM per slab whose column count is the
        # run length, not ox*oy*oz; BLAS may round a GEMM's last columns or a
        # small GEMM differently, so these agree to rounding. grad_w and
        # grad_b do not use runs and stay bit-equal.
        if planes is not None:
            _slab_planes(monkeypatch, x_shape, w_shape, pad, dtype, planes)
        (y, gx, gw, gb), (y0, gx0, gw0, gb0) = self._both(x_shape, w_shape, pad, dtype)
        _assert_close(y, y0, rtol)
        _assert_close(gx, gx0, rtol)
        assert gw.tobytes() == gw0.tobytes() and gb.tobytes() == gb0.tobytes()

    def test_ragged_slabs_reach_the_last_voxel(self, monkeypatch):
        # pad 0 on a 9-long axis: 7 output planes in slabs of 2, 2, 2, 1. Only
        # the last kernel offset is nonzero, so the last output voxel is the
        # channel sum of the input's last voxel, where the last run ends
        x_shape, w_shape = (2, 9, 5, 4), (3, 2, 3, 3, 3)
        assert _slab_planes(monkeypatch, x_shape, w_shape, 0, np.float64, 2) == 4
        x = np.random.default_rng(5).normal(size=x_shape)
        w = np.zeros(w_shape)
        w[:, :, -1, -1, -1] = 1.0
        y = ad._correlate(x, w.reshape(3, -1), w_shape[2:], (7, 3, 2))
        np.testing.assert_array_equal(y[:, -1, -1, -1], x[:, -1, -1, -1].sum())


# (x shape, w shape, stride, pad) of the strided conv3d layers in the
# criterion-06 networks: the U-Net's two downsamplings and the discriminator
# stack; with NET_STRIDE1 these are all 13 conv shapes of a training step
NET_STRIDED = [
    ((16, 16, 16, 16), (32, 16, 3, 3, 3), 2, 1),
    ((32, 8, 8, 8), (64, 32, 3, 3, 3), 2, 1),
    ((1, 16, 16, 16), (16, 1, 4, 4, 4), 2, 1),
    ((16, 8, 8, 8), (32, 16, 4, 4, 4), 2, 1),
    ((32, 4, 4, 4), (64, 32, 4, 4, 4), 2, 1),
]
# the TestConvOracle grids (strides 1, 2 and 3), then SMALL_STRIDE1's tall one
SMALL_GRIDS = [
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 0), ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 1),
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 1, 2), ((2, 6, 5, 4), (3, 2, 3, 3, 3), 2, 1),
    ((2, 6, 5, 4), (3, 2, 3, 3, 3), 2, 0), ((2, 6, 5, 4), (3, 2, 1, 1, 1), 1, 0),
    ((2, 6, 5, 4), (3, 2, 4, 4, 4), 2, 1), ((2, 6, 5, 4), (3, 2, 2, 2, 2), 3, 0),
    ((2, 8, 8, 8), (3, 2, 4, 4, 4), 2, 1), ((3, 2, 2, 2), (1, 3, 4, 4, 4), 1, 1),
    ((2, 8, 8, 8), (3, 2, 3, 3, 3), 2, 1), ((3, 6, 6, 6), (1, 3, 1, 1, 1), 1, 0),
    ((2, 9, 5, 4), (3, 2, 3, 3, 3), 1, 0),
]
PATCH_CASES = [(x, w, 1, p) for x, w, p in NET_STRIDE1] + NET_STRIDED + SMALL_GRIDS
PATCH_IDS = (NET_IDS + ["16-32s2", "32-64s2", "1-16k4s2", "16-32k4s2", "32-64k4s2"]
             + [f"{x[1]}x{x[2]}x{x[3]}-k{w[2]}s{st}p{p}" for x, w, st, p in SMALL_GRIDS])


class TestPatchesOneCopy:
    """The one-copy ``_patches`` and the weight gradient's operand order
    against ``patches_per_offset`` and ``g2 @ P.T``: the same bytes on every
    criterion-06 conv shape and the small oracle grids, in both dtypes."""

    @staticmethod
    def _case(x_shape, w_shape, stride, pad, dtype):
        rng = np.random.default_rng(list(x_shape) + list(w_shape) + [stride, pad])
        x = rng.normal(size=x_shape).astype(dtype)
        xp = np.pad(x, ((0, 0),) + ((pad, pad),) * 3)
        kernel = w_shape[2:]
        out_dims = tuple((n - k) // stride + 1 for n, k in zip(xp.shape[1:], kernel))
        return rng, x, xp, kernel, out_dims

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", PATCH_CASES, ids=PATCH_IDS)
    def test_patch_matrix_bytes(self, dtype, x_shape, w_shape, stride, pad):
        _, _, xp, kernel, out_dims = self._case(x_shape, w_shape, stride, pad, dtype)
        got = ad._patches(xp, kernel, stride, out_dims)
        want = patches_per_offset(xp, kernel, stride, out_dims)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", PATCH_CASES, ids=PATCH_IDS)
    def test_weight_gradient_bytes(self, dtype, x_shape, w_shape, stride, pad):
        rng, x, xp, kernel, out_dims = self._case(x_shape, w_shape, stride, pad, dtype)
        w = Tensor(rng.normal(size=w_shape).astype(dtype), requires_grad=True)
        out = ad.conv3d(Tensor(x), w, stride=stride, pad=pad)
        g = rng.normal(size=out.shape).astype(dtype)
        grad_x, grad_w = out._backward(g)
        want = g.reshape(w_shape[0], -1) @ patches_per_offset(xp, kernel, stride, out_dims).T
        assert grad_x is None and grad_w.dtype == want.dtype
        assert grad_w.tobytes() == want.reshape(w_shape).tobytes()


class TestConvMemory:
    """What a conv3d step holds: no padded input on the tape, weight-gradient
    patch matrices within ``_SLAB_BYTES``, and ``_pad`` equal to ``np.pad``."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_tape_keeps_no_padded_input(self, stride):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 6, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
        out = ad.conv3d(x, w, Tensor(np.zeros(3), requires_grad=True), stride=stride, pad=1)
        held = [c.cell_contents for c in out._backward.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.shape == (2, 8, 7, 6) for v in held)

    def test_backward_patch_matrices_fit_the_slab(self, monkeypatch):
        # one criterion-06 objective (16^3 patches, depth-3 16-channel U-Net,
        # 3-layer discriminator); its 48->16 weight gradient alone would be a
        # 21 MB patch matrix built whole
        meta = VolumeMeta((16, 16, 16), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
        rng = np.random.default_rng(6)
        chi_b, b_b, mag_b = ([Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))]
                             for _ in range(3))
        mask_b = [Tensor(np.ones((1, 16, 16, 16), dtype=np.float32))]
        _, total_g, gan_d = total_generator_loss(
            chi_b, b_b, build_generator(depth=3, base_channels=16, seed=0),
            build_discriminator(n_layers=3, base_channels=16, seed=1), build_dipole(meta),
            mag_batch=mag_b, mask_batch=mask_b)
        built, patches = [], ad._patches

        def recording(*args):
            p = patches(*args)
            built.append(p.nbytes)
            return p

        monkeypatch.setattr(ad, "_patches", recording)
        backward(total_g)
        backward(gan_d)
        assert len(built) >= 38 and max(built) <= ad._SLAB_BYTES

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pads", [(0, 0, 0), (1, 1, 1), (2, 2, 2), (2, 1, 0)],
                             ids=["0", "1", "2", "k-1-pad"])
    def test_pad_bytes(self, dtype, pads):
        # (2, 1, 0) is k - 1 - pad for a (3, 2, 1) kernel at pad 0; the input
        # is a transposed view, so pad 0 must still return a C-contiguous copy
        a = np.random.default_rng(1).normal(size=(4, 5, 6, 3)).astype(dtype).transpose(0, 3, 2, 1)
        got = ad._pad(a, pads)
        want = np.pad(a, ((0, 0),) + tuple((p, p) for p in pads))
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestInstanceNormOracle:
    """The one-node instance_norm against the composite oracle."""

    @staticmethod
    def _leaves(dtype, constant_channel: bool):
        rng = np.random.default_rng(12)
        x = rng.normal(1.5, 2.0, size=(3, 5, 4, 3))
        if constant_channel:
            x[1] = 4.0  # var = 0
        gamma = rng.uniform(0.5, 1.5, size=(3, 1, 1, 1))
        beta = rng.uniform(-0.5, 0.5, size=(3, 1, 1, 1))
        return [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta)]

    @pytest.mark.parametrize("constant_channel", [False, True])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_composite(self, dtype, rtol, constant_channel):
        g = np.random.default_rng(13).normal(size=(3, 5, 4, 3)).astype(dtype)
        results = []
        for op in (ad.instance_norm, instance_norm_composite):
            leaves = self._leaves(dtype, constant_channel)
            out = op(*leaves)
            backward(ad.tsum(ad.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            _assert_close(got, want, rtol)

    def test_single_node_with_three_parents(self):
        x, gamma, beta = self._leaves(np.float32, False)
        out = ad.instance_norm(x, gamma, beta)
        assert len(out._parents) == 3
        assert all(p is q for p, q in zip(out._parents, (x, gamma, beta)))

    def test_nonfinite_raises_without_warning(self):
        x = Tensor(np.full((1, 2, 2, 2), 3e38, dtype=np.float32))
        x.data[0, 0] = -3e38
        ones = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        zeros = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                ad.instance_norm(x, ones, zeros)


# every instance_norm shape of the criterion-06 networks on 16^3 patches:
# the generator's three levels, then the discriminator's three layers
NORM_SHAPES = [(16, 16, 16, 16), (32, 8, 8, 8), (64, 4, 4, 4),
               (16, 8, 8, 8), (32, 4, 4, 4), (64, 2, 2, 2)]


def norm_leaves(shape, dtype):
    """x, gamma and beta with a zero-variance channel (0) and an integer
    channel (1) whose mean is exactly 0 and which holds a 0; beta is 0 on
    both, so each has pre-activations that are exactly 0."""
    rng = np.random.default_rng(shape[0] + shape[1])
    x = rng.normal(0.3, 1.5, size=shape)
    x[0] = 4.0
    x[1] = rng.integers(-3, 4, size=shape[1:])
    x[1].flat[1] = 0.0
    x[1].flat[0] -= x[1].sum()
    gamma = rng.uniform(0.5, 1.5, size=(shape[0], 1, 1, 1))
    beta = rng.uniform(-0.5, 0.5, size=(shape[0], 1, 1, 1))
    beta[:2] = 0.0
    return [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta)]


class TestFusedNormLeakyRelu:
    """``instance_norm(..., slope=...)`` against the unfused pair
    ``leaky_relu(instance_norm(...))``: the output and all three gradients
    byte for byte, and a tape that keeps no copy of the activation."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", NORM_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_bytes_match_unfused_pair(self, shape, dtype):
        g = np.random.default_rng(3).normal(size=shape).astype(dtype)
        results = []
        for fused in (True, False):
            leaves = norm_leaves(shape, dtype)
            if fused:
                out = ad.instance_norm(*leaves, slope=LEAKY_SLOPE)
            else:
                pre = ad.instance_norm(*leaves)
                assert np.count_nonzero(pre.data[:2] == 0) > pre.data[0].size
                out = ad.leaky_relu(pre, LEAKY_SLOPE)
            backward(ad.tsum(ad.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_matches_where(self, dtype):
        # the factor leaky_relu built before: np.where in float64, then cast
        positive = np.random.default_rng(6).normal(size=1000) > 0
        for slope in (0.0, 1e-30, 0.01, 0.2, 0.3, 0.5, 0.7, np.nextafter(1.0, 0.0)):
            want = np.where(positive, 1.0, slope).astype(dtype)
            got = ad._leaky_factor(positive, slope, np.dtype(dtype))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for slope in (-0.1, 1.0, np.nan):
            with pytest.raises(InputError, match="slope"):
                ad._leaky_factor(positive, slope, np.dtype(dtype))

    @staticmethod
    def closure_arrays(node):
        return [c.cell_contents for c in node._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]

    @pytest.mark.parametrize("slope", [None, LEAKY_SLOPE])
    def test_closure_keeps_only_its_output(self, slope):
        x, gamma, beta = norm_leaves(NORM_SHAPES[1], np.float32)
        out = ad.instance_norm(x, gamma, beta, slope=slope)
        big = [a for a in self.closure_arrays(out) if a.size >= x.data.size]
        assert len(big) == 1 and big[0] is out.data

    def test_leaky_relu_keeps_only_its_output(self):
        a = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4, 5)), requires_grad=True)
        out = ad.leaky_relu(a, LEAKY_SLOPE)
        assert [id(c) for c in self.closure_arrays(out)] == [id(out.data)]

    def test_network_tapes(self):
        # every norm node of both networks is fused and keeps only its output
        gen = build_generator(depth=3, base_channels=8, seed=0)
        disc = build_discriminator(n_layers=3, base_channels=8, seed=1)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 16, 16, 16)).astype(np.float32))
        score = forward_discriminator(disc, forward_generator(gen, x, x))
        kinds = {}
        for node in ad._topo(score):
            if node._backward is None:
                continue
            kind = node._backward.__qualname__.split(".")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "instance_norm":
                big = [a for a in self.closure_arrays(node) if a.size >= node.data.size]
                assert len(big) == 1 and big[0] is node.data
        assert kinds["instance_norm"] == 12 + 3 and "leaky_relu" not in kinds


class TestTapeMemory:
    """The tape of one criterion-06 objective (16^3 patches, batch 1) in
    tracemalloc: 18.85 MB while each norm kept x_hat and each leaky ReLU its
    factor, 9.90 MB with the fused node. The bound leaves about 1 MB, less
    than one kind of activation-sized array kept per node."""

    def test_objective_tape_bound(self):
        meta = VolumeMeta((16, 16, 16), (1.0, 1.0, 1.0), (0, 0, 1))
        kernel = build_dipole(meta)
        gen = build_generator(depth=3, base_channels=16, seed=0)
        disc = build_discriminator(n_layers=3, base_channels=16, seed=1)
        rng = np.random.default_rng(0)
        chi, b = ([Tensor(rng.uniform(-0.1, 0.1, (1,) + meta.dims).astype(np.float32))]
                  for _ in range(2))
        mag = [Tensor(np.ones((1,) + meta.dims, dtype=np.float32))]

        def objective():
            return total_generator_loss(chi, b, gen, disc, kernel, mag_batch=mag)

        objective()  # FFT plans are built once
        tracemalloc.start()
        try:
            _, total, gan_d = objective()
            tape = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tape <= 11.0e6, f"tape {tape / 1e6:.2f} MB"


class TestOpValues:
    def test_nn_upsample_is_block_replication(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=(2, 3, 2, 2))
        got = ad.nn_upsample(Tensor(d, dtype=np.float64), 2).data
        want = np.kron(d, np.ones((1, 2, 2, 2)))
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(
            ad.nn_upsample(Tensor(d, dtype=np.float64), 1).data, d)
        with pytest.raises(InputError):
            ad.nn_upsample(Tensor(d), 0)

    def test_nn_upsample_mean_pool_inverse(self):
        rng = np.random.default_rng(11)
        d = rng.normal(size=(2, 3, 2, 4))
        up = ad.nn_upsample(Tensor(d, dtype=np.float64), 2).data
        c, x, y, z = d.shape
        pooled = up.reshape(c, x, 2, y, 2, z, 2).mean(axis=(2, 4, 6))
        np.testing.assert_allclose(pooled, d, rtol=1e-15)

    def test_shift_diff_forward_difference(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=(1, 4, 5, 3))
        for axis in range(3):
            got = ad.shift_diff(Tensor(d, dtype=np.float64), axis).data
            want = np.zeros_like(d)
            sl_lo = [slice(None)] * 4
            sl_hi = [slice(None)] * 4
            n = d.shape[axis + 1]
            sl_lo[axis + 1] = slice(0, n - 1)
            sl_hi[axis + 1] = slice(1, n)
            want[tuple(sl_lo)] = d[tuple(sl_hi)] - d[tuple(sl_lo)]
            np.testing.assert_allclose(got, want, rtol=1e-15)
        with pytest.raises(InputError):
            ad.shift_diff(Tensor(d), 3)

    def test_spectral_filter_matches_kernel_application(self):
        meta = VolumeMeta((8, 6, 4), (1.0, 1.2, 0.9), (0.0, 1.0, 2.0))
        spec = build_dipole(meta).spectrum
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2,) + meta.dims)
        got = ad.spectral_filter(Tensor(x, dtype=np.float64), spec).data
        want = np.stack([apply_spectrum(x[c], spec) for c in range(2)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        with pytest.raises(InputError):
            ad.spectral_filter(Tensor(x, dtype=np.float64), spec[:-1])

    def test_spectral_filter_self_adjoint(self):
        meta = VolumeMeta((6, 4, 4), (1.0, 1.0, 1.5), (1.0, 1.0, 0.0))
        spec = build_dipole(meta).spectrum
        rng = np.random.default_rng(5)
        u = rng.normal(size=(1,) + meta.dims)
        v = rng.normal(size=(1,) + meta.dims)
        hu = ad.spectral_filter(Tensor(u, dtype=np.float64), spec).data
        hv = ad.spectral_filter(Tensor(v, dtype=np.float64), spec).data
        assert abs(np.vdot(hu, v) - np.vdot(u, hv)) < 1e-12 * np.abs(np.vdot(hu, v))

    def test_spectral_filter_requires_even_spectrum(self):
        meta = VolumeMeta((8, 6, 5), (1.0, 1.2, 0.9), (0.0, 1.0, 2.0))
        x = Tensor(np.random.default_rng(6).normal(size=(2,) + meta.dims))
        spec = np.array(build_dipole(meta).spectrum)
        ad.spectral_filter(x, spec)
        ad.spectral_filter(x, _even_spectrum(np.random.default_rng(7), meta.dims))
        spec[1, 2, 3] += 1e-9  # outside the half spectrum; its mirror bin is inside
        with pytest.raises(InputError, match="even"):
            ad.spectral_filter(x, spec)

    def test_elementwise_values(self):
        t = Tensor([-1.0, 0.0, 2.0], dtype=np.float64)
        np.testing.assert_allclose(ad.leaky_relu(t, 0.2).data, [-0.2, 0.0, 2.0])
        np.testing.assert_allclose(ad.absolute(t).data, [1.0, 0.0, 2.0])
        np.testing.assert_allclose(ad.neg(t).data, [1.0, 0.0, -2.0])
        np.testing.assert_allclose(ad.cos(t).data, np.cos(t.data))
        np.testing.assert_allclose(ad.sqrt(Tensor([4.0, 9.0])).data, [2.0, 3.0])

    def test_operator_sugar(self):
        a = Tensor([2.0], dtype=np.float64)
        np.testing.assert_allclose((a + 1.0).data, [3.0])
        np.testing.assert_allclose((1.0 - a).data, [-1.0])
        np.testing.assert_allclose((a * 3.0).data, [6.0])
        np.testing.assert_allclose((1.0 / a).data, [0.5])
        np.testing.assert_allclose((-a).data, [-2.0])

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(6)
        d = rng.normal(size=(2, 3, 4, 3))
        t = Tensor(d, dtype=np.float64)
        np.testing.assert_allclose(ad.tsum(t).data, d.sum(), rtol=1e-13)
        np.testing.assert_allclose(ad.tsum(t, axis=(1, 3)).data,
                                   d.sum(axis=(1, 3)), rtol=1e-13)
        np.testing.assert_allclose(ad.tmean(t, axis=2, keepdims=True).data,
                                   d.mean(axis=2, keepdims=True), rtol=1e-13)

    def test_concat_and_split_gradients(self):
        rng = np.random.default_rng(7)
        parts = [Tensor(rng.normal(size=(c, 2, 2, 2)), requires_grad=True,
                        dtype=np.float64) for c in (1, 2)]
        w = rng.normal(size=(3, 2, 2, 2))
        out = ad.concat(parts)
        np.testing.assert_allclose(out.data,
                                   np.concatenate([p.data for p in parts]))
        backward(ad.tsum(ad.mul(out, Tensor(w))))
        np.testing.assert_allclose(parts[0].grad, w[:1], rtol=1e-13)
        np.testing.assert_allclose(parts[1].grad, w[1:], rtol=1e-13)
        with pytest.raises(InputError):
            ad.concat([])
        with pytest.raises(InputError):
            ad.concat([parts[0], Tensor(np.zeros((1, 3, 2, 2)))])

    def test_instance_norm_statistics(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(2.0, 3.0, size=(3, 5, 4, 4)), dtype=np.float64)
        ones = Tensor(np.ones((3, 1, 1, 1)), dtype=np.float64)
        zeros = Tensor(np.zeros((3, 1, 1, 1)), dtype=np.float64)
        out = ad.instance_norm(x, ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=(1, 2, 3)), 1.0, atol=1e-4)
        gamma = Tensor(np.full((3, 1, 1, 1), 2.0), dtype=np.float64)
        beta = Tensor(np.full((3, 1, 1, 1), 0.5), dtype=np.float64)
        out2 = ad.instance_norm(x, gamma, beta).data
        np.testing.assert_allclose(out2, 2.0 * out + 0.5, rtol=1e-12)

    def test_instance_norm_constant_channel(self):
        x = Tensor(np.full((2, 3, 3, 3), 4.0), dtype=np.float64)
        ones = Tensor(np.ones((2, 1, 1, 1)), dtype=np.float64)
        zeros = Tensor(np.zeros((2, 1, 1, 1)), dtype=np.float64)
        out = ad.instance_norm(x, ones, zeros).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_tape_linearity(self):
        # backward of a sum equals the sum of the separate backwards
        rng = np.random.default_rng(10)
        d = rng.normal(size=(2, 3, 3, 3))
        x1 = Tensor(d.copy(), requires_grad=True, dtype=np.float64)
        f1 = ad.tsum(ad.cos(x1))
        f2 = ad.tsum(ad.mul(x1, x1))
        backward(ad.add(f1, f2))
        g_joint = x1.grad.copy()
        x2 = Tensor(d.copy(), requires_grad=True, dtype=np.float64)
        backward(ad.tsum(ad.cos(x2)))
        g_a = x2.grad.copy()
        zero_grads([x2])
        backward(ad.tsum(ad.mul(x2, x2)))
        g_b = x2.grad.copy()
        np.testing.assert_allclose(g_joint, g_a + g_b, rtol=1e-12)


class TestGradientSuite:
    """The same per-op case families the acceptance gate runs, at a reduced
    case count so the unit suite stays fast."""

    def test_suite_runs_every_family(self):
        # each family seeded by its index in FAMILIES, whatever else runs
        assert list(run_suite(np.float64, n_cases=1, samples=1)) == list(FAMILIES)

    @pytest.mark.parametrize("op", OPS + FUSED)
    def test_single_precision(self, op):
        worst = 0.0
        for case in range(5):
            rng = np.random.default_rng([FAMILIES.index(op), case])
            f, tensors = build_case(op, rng, np.float32)
            worst = max(worst, check_gradients(
                f, tensors, rng=np.random.default_rng(case), samples=8))
        assert worst < F32_TOL, f"{op}: worst rel error {worst:.3e}"

    @pytest.mark.parametrize("op", OPS + FUSED)
    def test_double_precision(self, op):
        worst = 0.0
        for case in range(5):
            rng = np.random.default_rng([FAMILIES.index(op), case])
            f, tensors = build_case(op, rng, np.float64)
            worst = max(worst, check_gradients(
                f, tensors, rng=np.random.default_rng(case), samples=8))
        assert worst < F64_TOL, f"{op}: worst rel error {worst:.3e}"

    @pytest.mark.parametrize("dtype,tol", [(np.float32, F32_TOL), (np.float64, F64_TOL)])
    def test_conv3d_across_slabs(self, monkeypatch, dtype, tol):
        # one output plane per slab: the stride-1 family's forward and input
        # gradient each run as one GEMM per plane
        monkeypatch.setattr(ad, "_SLAB_BYTES", 1)
        worst = 0.0
        for case in range(5):
            rng = np.random.default_rng([OPS.index("conv3d"), case])
            f, tensors = build_case("conv3d", rng, dtype)
            worst = max(worst, check_gradients(
                f, tensors, rng=np.random.default_rng(case), samples=8))
        assert worst < tol, f"conv3d across slabs: worst rel error {worst:.3e}"
