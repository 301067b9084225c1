"""Self-contained reverse-mode automatic differentiation on numpy arrays.

Activations follow a (channels, x, y, z) layout with no batch axis; batches
are Python lists. Every op validates that its output is finite (silent NaN
propagation is treated as a numerical fault). The tape is the implicit graph
of parent links; backward() topologically sorts it and visits each node
exactly once, accumulating gradients into leaves marked requires_grad.

Single precision is the working dtype; float64 tensors are supported so
gradient checks can separate method error from rounding error.
"""

from __future__ import annotations

import numpy as np

from .dipole import apply_spectrum, k_mirror
from .errors import InputError, NumericalError, require
from .volume import forward_diff, forward_diff_adjoint

DEFAULT_DTYPE = np.float32


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericalError("non-finite value produced by an op")
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_live")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if not arr.flags.writeable:
            arr = arr.copy()  # tensors own their storage (volumes are locked)
        self.data = _check_finite(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._live = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    # operator sugar; everything funnels into the op functions below
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, live={self._live})"


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _node(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p._live for p in parents):
        out._parents = parents
        out._backward = backward_fn
        out._live = True
    return out


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(out: Tensor) -> None:
    """Reverse pass from a scalar; accumulates into .grad of trainable leaves."""
    if out.data.size != 1:
        raise InputError(f"backward needs a scalar, got shape {out.data.shape}")
    order = _topo(out)
    flowing: dict[int, np.ndarray] = {id(out): np.ones_like(out.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent._live:
                continue
            key = id(parent)
            flowing[key] = pg if key not in flowing else flowing[key] + pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data  # non-finite results caught by the node check
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def absolute(a: Tensor) -> Tensor:
    """|x| with subgradient sign(x) (0 at the kink)."""
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _node(out, (a,), lambda g: (g * (0.5 / out),))


def cos(a: Tensor) -> Tensor:
    return _node(np.cos(a.data), (a,), lambda g: (g * -np.sin(a.data),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def back(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax] for ax in np.atleast_1d(axis)])

    def back(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).astype(a.data.dtype),)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


def _leaky_factor(positive: np.ndarray, slope: float, dtype) -> np.ndarray:
    """1 where ``positive``, else ``slope``, built in ``dtype`` as
    ``positive * (1 - slope) + slope``: exact for 0 <= slope < 1, because
    1 - slope rounds by at most half an ulp below 1, so adding slope rounds
    back to 1. np.where with scalars runs a masked loop about 10x slower."""
    require("slope", slope, ge=0, lt=1)
    one, s = dtype.type(1), dtype.type(slope)
    factor = positive.astype(dtype)
    factor *= one - s
    factor += s
    return factor


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x. The backward takes its mask from the
    output, which is > 0 exactly where the input is."""
    out = a.data * _leaky_factor(a.data > 0, slope, a.data.dtype)
    return _node(out, (a,), lambda g: (g * _leaky_factor(out > 0, slope, out.dtype),))


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis."""
    if not parts:
        raise InputError("concat needs at least one tensor")
    spatial = {p.data.shape[1:] for p in parts}
    if len(spatial) != 1:
        raise InputError(f"concat spatial shapes differ: {sorted(spatial)}")
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=0), tuple(parts), back)


def nn_upsample(a: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling by integer replication."""
    if factor < 1:
        raise InputError(f"factor must be >= 1, got {factor}")
    d = a.data
    out = d.repeat(factor, axis=1).repeat(factor, axis=2).repeat(factor, axis=3)
    c, x, y, z = d.shape

    def back(g):
        return (g.reshape(c, x, factor, y, factor, z, factor).sum(axis=(2, 4, 6)),)

    return _node(out, (a,), back)


def shift_diff(a: Tensor, axis: int) -> Tensor:
    """Forward difference along a spatial axis (0..2); last slice zero."""
    if axis not in (0, 1, 2):
        raise InputError(f"spatial axis must be 0..2, got {axis}")
    return _node(forward_diff(a.data, axis + 1), (a,),
                 lambda g: (forward_diff_adjoint(g, axis + 1),))


def spectral_filter(a: Tensor, spectrum: np.ndarray) -> Tensor:
    """Multiply by a real, even spectrum in k-space, per channel.

    Evenness makes the operator self-adjoint on real fields, so the backward
    pass reuses the forward transform, and the half-spectrum apply needs it:
    a spectrum unequal to its ``k_mirror`` is rejected.
    """
    if spectrum.shape != a.data.shape[1:]:
        raise InputError(
            f"spectrum shape {spectrum.shape} does not match spatial {a.data.shape[1:]}")
    if not np.array_equal(spectrum, k_mirror(spectrum)):
        raise InputError("spectrum is not even under k -> -k")
    spec = spectrum.astype(a.data.dtype)  # so the result keeps the data's dtype
    return _node(apply_spectrum(a.data, spec), (a,), lambda g: (apply_spectrum(g, spec),))


def conv3d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """3D cross-correlation with zero padding.

    ``x`` is (C_in, X, Y, Z), ``w`` is (C_out, C_in, kx, ky, kz), ``b`` is
    (C_out,). Output spatial size per axis is floor((n + 2 pad - k)/stride)+1.
    Forward and both backward products are each one GEMM with a patch matrix
    (im2col). At stride 1 the forward and the input gradient copy it as
    contiguous runs (``_correlate``); strided layers (no runs) and the weight
    gradient (run columns would change its sum) copy it from one strided view
    (``_patches``). The tape keeps no padded input: ``back()`` pads ``x.data``
    again, which nothing writes to in between. grad_w is ``(P @ g2.T).T``,
    because BLAS packs the C-contiguous P faster as its left operand, formed
    in blocks of input channels (``_weight_grad``); the bytes equal
    ``g2 @ P.T``. Backward requires pad <= k - 1, which every architecture
    here satisfies.
    """
    if x.data.ndim != 4 or w.data.ndim != 5:
        raise InputError("conv3d expects x (C,X,Y,Z) and w (O,C,kx,ky,kz)")
    c_in, xs, ys, zs = x.data.shape
    c_out, c_in_w, k1, k2, k3 = w.data.shape
    if c_in != c_in_w:
        raise InputError(f"conv3d channel mismatch: x has {c_in}, w expects {c_in_w}")
    if stride < 1 or pad < 0:
        raise InputError(f"bad stride/pad: {stride}/{pad}")
    if pad > min(k1, k2, k3) - 1 and pad > 0:
        raise InputError(f"pad {pad} exceeds kernel-1")
    if b is not None and b.data.shape != (c_out,):
        raise InputError(f"bias shape {b.data.shape} != ({c_out},)")
    for n, k in zip((xs, ys, zs), (k1, k2, k3)):
        if n + 2 * pad < k:
            raise InputError(f"kernel {k} larger than padded extent {n + 2 * pad}")

    kernel = (k1, k2, k3)
    out_dims = tuple((n + 2 * pad - k) // stride + 1 for n, k in zip((xs, ys, zs), kernel))
    xp = _pad(x.data, (pad,) * 3)
    w2 = w.data.reshape(c_out, -1)
    y = (_correlate(xp, w2, kernel, out_dims) if stride == 1 else
         (w2 @ _patches(xp, kernel, stride, out_dims)).reshape((c_out,) + out_dims))
    if b is not None:
        y = y + b.data[:, None, None, None]

    def back(g):
        g2 = g.reshape(c_out, -1)
        xp = _pad(x.data, (pad,) * 3)
        grad_w = _weight_grad(xp, g2, kernel, stride, out_dims).T.reshape(w.data.shape)
        grad_b = None if b is None else g.sum(axis=(1, 2, 3))
        if not x._live:
            grad_x = None  # input data (first layer): backward() would drop it
        elif stride == 1:
            # full correlation of g with the flipped, channel-transposed kernel
            gp = _pad(g, tuple(k - 1 - pad for k in kernel))
            w_flip = w.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            grad_x = _correlate(gp, w_flip.reshape(c_in, -1), kernel, (xs, ys, zs))
        else:
            # scatter each kernel offset's share back through the strided
            # slices it was read from; uncovered remainder voxels stay zero
            cols = (w2.T @ g2).reshape((c_in,) + kernel + out_dims)
            gxp = np.zeros_like(xp, dtype=cols.dtype)
            for off in np.ndindex(*kernel):
                gxp[_window(off, stride, out_dims)] += cols[(slice(None),) + off]
            grad_x = gxp[:, pad:pad + xs, pad:pad + ys, pad:pad + zs]
        if b is None:
            return grad_x, grad_w
        return grad_x, grad_w, grad_b

    parents = (x, w) if b is None else (x, w, b)
    return _node(y, parents, back)


def _window(offset, stride: int, out_dims) -> tuple:
    """Slices of a padded (C, X, Y, Z) array read by one kernel offset."""
    return (slice(None),) + tuple(slice(o, o + stride * (n - 1) + 1, stride)
                                  for o, n in zip(offset, out_dims))


def _pad(a: np.ndarray, pads) -> np.ndarray:
    """``a`` (C, X, Y, Z) with ``pads[i]`` zeros on both sides of spatial axis
    i: the bytes of ``np.pad``, always C-contiguous, a copy unless every pad is 0."""
    if not any(pads):
        return np.ascontiguousarray(a)
    out = np.zeros(a.shape[:1] + tuple(n + 2 * p for n, p in zip(a.shape[1:], pads)),
                   dtype=a.dtype)
    out[(slice(None),) + tuple(slice(p, p + n) for n, p in zip(a.shape[1:], pads))] = a
    return out


# patch-matrix bytes per slab in _correlate and _weight_grad (1 to 8 MB ran
# equally fast)
_SLAB_BYTES = 4 << 20
# OpenBLAS rounds a GEMM of M*N*K <= 1e6 with its small-matrix kernel, so a
# block that small would not give the bytes of the whole product
_BLAS_SMALL_MNK = 10 ** 6


def _equal_blocks(count: int, unit_bytes: int) -> int:
    """Units per block when ``count`` units of ``unit_bytes`` each split into the
    fewest equal blocks within _SLAB_BYTES: a short last block would be a small
    GEMM that BLAS rounds differently."""
    return -(-count // -(-count // max(1, _SLAB_BYTES // unit_bytes)))


def _correlate(xp: np.ndarray, w2: np.ndarray, kernel, out_dims) -> np.ndarray:
    """Stride-1 correlation, (O,) + out_dims, of a padded C-contiguous (C, X,
    Y, Z) array with ``w2`` (O, C*k1*k2*k3). Patch row (c, i, j, l) is the
    run of channel c from i*Y*Z + j*Z + l, so a slab of output planes is one
    view and one copy; the GEMM covers the padded width, cropped after."""
    c, _, ys, zs = xp.shape
    ox, oy, oz = out_dims
    plane, rows = ys * zs, w2.shape[1]
    n = _equal_blocks(ox, rows * plane * xp.itemsize)
    full = np.empty((w2.shape[0], ox * plane), dtype=np.result_type(w2, xp))
    for x0 in range(0, ox, n):
        run = (min(n, ox - x0) - 1) * plane + (oy - 1) * zs + oz
        view = np.lib.stride_tricks.as_strided(
            xp[:, x0:], shape=(c,) + tuple(kernel) + (run,),
            strides=(xp.strides[0],) + tuple(xp.itemsize * s for s in (plane, zs, 1, 1)),
            writeable=False)
        np.matmul(w2, np.ascontiguousarray(view).reshape(rows, run),
                  out=full[:, x0 * plane:x0 * plane + run])
    return np.ascontiguousarray(full.reshape(-1, ox, ys, zs)[:, :, :oy, :oz])


def _weight_grad(xp: np.ndarray, g2: np.ndarray, kernel, stride: int, out_dims) -> np.ndarray:
    """``_patches(xp, ...) @ g2.T``, (C*k1*k2*k3, O), one GEMM per block of input
    channels. Equal blocks keep each block's patch matrix within _SLAB_BYTES;
    the product is split only while every block stays above _BLAS_SMALL_MNK."""
    c, taps = xp.shape[0], int(np.prod(kernel))
    o, cols = g2.shape
    n = _equal_blocks(c, taps * cols * xp.itemsize)
    if ((c - 1) % n + 1) * taps * o * cols <= _BLAS_SMALL_MNK:  # the last block is the smallest
        n = c
    rows = np.empty((c * taps, o), dtype=np.result_type(xp, g2))
    for c0 in range(0, c, n):
        np.matmul(_patches(xp[c0:c0 + n], kernel, stride, out_dims), g2.T,
                  out=rows[c0 * taps:(c0 + n) * taps])
    return rows


def _patches(xp: np.ndarray, kernel, stride: int, out_dims) -> np.ndarray:
    """C-contiguous patch matrix (C*k1*k2*k3, ox*oy*oz) of a padded (C, X, Y, Z) array.

    Rows follow the (c, i, j, l) order of ``w.reshape(C_out, -1)``, so a
    convolution is one matrix product; entry ((c, i, j, l), (x, y, z)) is
    ``xp[c, i + s*x, j + s*y, l + s*z]``, copied from one strided view.
    """
    sc, sx, sy, sz = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(xp.shape[0],) + tuple(kernel) + tuple(out_dims),
        strides=(sc, sx, sy, sz, stride * sx, stride * sy, stride * sz), writeable=False)
    return np.ascontiguousarray(view).reshape(-1, int(np.prod(out_dims)))


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
                  slope: float | None = None) -> Tensor:
    """Per-channel normalization over the spatial axes with learned affine,
    followed by a leaky ReLU of ``slope`` when one is given.

    gamma/beta are (C, 1, 1, 1). One tape node: with x_hat the normalized
    input, ``inv`` = 1/sqrt(var + eps) and g_hat = g * gamma, the input
    gradient is inv * (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)).
    The node keeps no array the size of the activation beyond its input and
    its output: the backward recomputes x_hat as ``(x - mu) * inv``, the
    forward's expression, and takes the slope mask from ``out > 0``, which
    holds exactly where the pre-activation is > 0 (In-Place Activated
    BatchNorm, Rota Bulo et al. 2018). The bytes equal those of
    ``leaky_relu(instance_norm(x, gamma, beta), slope)``.
    """
    axes = (1, 2, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        # non-finite results are caught by the node check
        mu = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        out = centered * inv * gamma.data + beta.data
    if slope is not None:
        out = out * _leaky_factor(out > 0, slope, out.dtype)

    def back(g):
        if slope is not None:
            g = g * _leaky_factor(out > 0, slope, out.dtype)
        x_hat = (x.data - mu) * inv
        g_hat = g * gamma.data
        grad_x = inv * (g_hat - g_hat.mean(axis=axes, keepdims=True)
                        - x_hat * (g_hat * x_hat).mean(axis=axes, keepdims=True))
        return (grad_x, _unbroadcast(g * x_hat, gamma.data.shape),
                _unbroadcast(g, beta.data.shape))

    return _node(out, (x, gamma, beta), back)


def numeric_gradient(f, tensor: Tensor, indices, h: float) -> np.ndarray:
    """Central differences of scalar f() w.r.t. tensor entries at ``indices``.

    Differences are accumulated in float64 regardless of the working dtype.
    """
    out = np.zeros(len(indices))
    flat = tensor.data.reshape(-1)
    for row, idx in enumerate(indices):
        orig = flat[idx]
        try:
            flat[idx] = orig + h
            fp = float(f().data)
            flat[idx] = orig - h
            fm = float(f().data)
        finally:
            flat[idx] = orig
        out[row] = (fp - fm) / (2.0 * h)
    return out


def check_gradients(f, tensors: list[Tensor], rng=None, samples: int | None = 16,
                    h: float | None = None) -> float:
    """Compare AD gradients of scalar f() against central differences.

    The error is max|numeric - ad| over all sampled coordinates, normalized
    by the largest gradient magnitude seen anywhere in the case. A single
    scalar objective gives every coordinate the same units, so one global
    scale is the right yardstick: coordinates whose true gradient is tiny or
    structurally zero (a parameter killed by a DC-free filter, say) are held
    to absolute accuracy at the gradient's scale, which is all that finite
    differences on a floating-point objective can resolve. An absolute floor
    guards the all-zero-gradient corner. Step h defaults to 1e-2 for float32
    graphs and 1e-5 for float64. Returns the worst normalized error.
    """
    if samples is not None:
        require("samples", samples, ge=1, integer=True)
    if h is not None:
        require("h", h, gt=0)
    rng = rng or np.random.default_rng(0)
    single = any(t.data.dtype == np.float32 for t in tensors)
    step = h if h is not None else (1e-2 if single else 1e-5)
    floor = 1e-4 if single else 1e-10

    zero_grads(tensors)
    out = f()
    backward(out)
    pairs = []
    for t in tensors:
        if t.grad is None:
            raise NumericalError("no gradient reached a checked tensor")
        size = t.data.size
        if samples is None or samples >= size:
            idx = list(range(size))
        else:
            idx = sorted(rng.choice(size, size=samples, replace=False).tolist())
        num = numeric_gradient(f, t, idx, step)
        ad = t.grad.reshape(-1)[idx].astype(np.float64)
        pairs.append((num, ad))
    scale = floor
    for num, ad in pairs:
        scale = max(scale, float(np.abs(num).max(initial=0.0)),
                    float(np.abs(ad).max(initial=0.0)))
    return max(float(np.abs(num - ad).max(initial=0.0)) / scale
               for num, ad in pairs)
