"""Network architectures, optimizer, and the DBC1 checkpoint format.

The generator is a 3D U-Net over two input channels (local field phase and
magnitude) producing one susceptibility channel; the discriminator is a 3D
patchGAN emitting a patch map of realness scores. Both are parameter
dictionaries of Tensors driven by the ops in autodiff. Each architecture's
ordered (name, shape) layout is written once: building initializes from it
and loading a checkpoint checks the file against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, MalformedHeaderError, require
from .volume import read_framed, write_framed

DBC1_MAGIC = "DBC1"
LEAKY_SLOPE = 0.2
INIT_STD = 0.02


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    # resample anything beyond two sigma
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return x * std


@dataclass
class Generator:
    depth: int
    base_channels: int
    in_channels: int
    params: dict[str, Tensor]

    @property
    def divisor(self) -> int:
        return 2 ** (self.depth - 1)

    def require_divisible(self, what: str, sizes) -> None:
        """Reject spatial ``sizes`` (named ``what``) the U-Net cannot halve depth - 1 times."""
        if np.any(np.mod(sizes, self.divisor)):
            raise InputError(f"{what} {sizes} must be divisible by {self.divisor} (pad each "
                             f"offending axis up to the next multiple of {self.divisor})")

    def config(self) -> dict:
        return {"depth": self.depth, "base_channels": self.base_channels,
                "in_channels": self.in_channels}


@dataclass
class Discriminator:
    n_layers: int
    base_channels: int
    in_channels: int
    params: dict[str, Tensor]

    def config(self) -> dict:
        return {"n_layers": self.n_layers, "base_channels": self.base_channels,
                "in_channels": self.in_channels}

    def require_patch(self, p: int) -> None:
        """Reject a patch side that the k4 s2 p1 stack shrinks below the
        2-wide map the 4-wide head needs."""
        n = p
        for _ in range(self.n_layers):
            n = (n - 2) // 2 + 1
        if n < 2:
            raise InputError(
                f"patch_size {p} leaves a {n}-wide map after {self.n_layers} "
                f"strided layers; the 4-wide head needs at least 2")


def _conv_layout(name: str, c_in: int, c_out: int, k: int,
                 norm: bool = True) -> list[tuple[str, tuple]]:
    out = [(f"{name}.w", (c_out, c_in, k, k, k)), (f"{name}.b", (c_out,))]
    if norm:
        out += [(f"{name}.gamma", (c_out, 1, 1, 1)), (f"{name}.beta", (c_out, 1, 1, 1))]
    return out


def _generator_layout(depth: int, base_channels: int,
                     in_channels: int) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) list of the U-Net's parameters: two 3x3x3
    conv+IN+lrelu per level, stride-2 conv down, nearest-neighbour up with
    skip concatenation, 1x1x1 linear head."""
    require("depth, base_channels, in_channels", depth, base_channels, in_channels,
            ge=1, integer=True)
    ch = [base_channels * 2 ** l for l in range(depth)]
    out = []
    for l in range(depth):
        if l > 0:
            out += _conv_layout(f"down{l}", ch[l - 1], ch[l], 3)
        out += _conv_layout(f"enc{l}.c1", in_channels if l == 0 else ch[l], ch[l], 3)
        out += _conv_layout(f"enc{l}.c2", ch[l], ch[l], 3)
    for l in range(depth - 2, -1, -1):
        out += _conv_layout(f"dec{l}.c1", ch[l + 1] + ch[l], ch[l], 3)
        out += _conv_layout(f"dec{l}.c2", ch[l], ch[l], 3)
    return out + _conv_layout("out", ch[0], 1, 1, norm=False)


def _discriminator_layout(n_layers: int, base_channels: int,
                         in_channels: int) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) list of the patchGAN's parameters: stride-2
    4x4x4 conv+IN+lrelu stack, then a linear 4x4x4 head."""
    require("n_layers, base_channels, in_channels", n_layers, base_channels, in_channels,
            ge=1, integer=True)
    ch = [in_channels] + [base_channels * 2 ** l for l in range(n_layers)]
    out = []
    for l in range(n_layers):
        out += _conv_layout(f"layer{l}", ch[l], ch[l + 1], 4)
    return out + _conv_layout("out", ch[-1], 1, 4, norm=False)


def _init_params(layout, seed: int, dtype) -> dict[str, Tensor]:
    """Truncated normal for ``.w`` (drawn in layout order), ones for
    ``.gamma``, zeros for ``.b`` and ``.beta``."""
    require("seed", seed, ge=0, integer=True)
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in layout:
        role = name.rsplit(".", 1)[1]
        data = (_trunc_normal(rng, shape) if role == "w"
                else np.ones(shape) if role == "gamma" else np.zeros(shape))
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return params


def build_generator(depth: int = 3, base_channels: int = 16, in_channels: int = 2,
                    seed: int = 0, dtype=np.float32) -> Generator:
    return Generator(depth, base_channels, in_channels, _init_params(
        _generator_layout(depth, base_channels, in_channels), seed, dtype))


def build_discriminator(n_layers: int = 3, base_channels: int = 16,
                        in_channels: int = 1, seed: int = 0,
                        dtype=np.float32) -> Discriminator:
    return Discriminator(n_layers, base_channels, in_channels, _init_params(
        _discriminator_layout(n_layers, base_channels, in_channels), seed, dtype))


def _conv_in_lrelu(p: dict[str, Tensor], name: str, x: Tensor,
                   stride: int = 1, pad: int = 1) -> Tensor:
    """conv3d, then instance_norm with the leaky ReLU in the same tape node."""
    x = ad.conv3d(x, p[f"{name}.w"], p[f"{name}.b"], stride=stride, pad=pad)
    return ad.instance_norm(x, p[f"{name}.gamma"], p[f"{name}.beta"], slope=LEAKY_SLOPE)


def forward_generator(gen: Generator, phase: Tensor, magnitude: Tensor) -> Tensor:
    """Run the U-Net; inputs are (1, X, Y, Z) tensors sharing a grid."""
    if phase.shape != magnitude.shape or phase.shape[0] != 1:
        raise InputError("phase and magnitude must both be (1, X, Y, Z)")
    gen.require_divisible("spatial dims", phase.shape[1:])
    p = gen.params
    x = ad.concat([phase, magnitude])
    skips = []
    for l in range(gen.depth):
        if l > 0:
            skips.append(x)
            x = _conv_in_lrelu(p, f"down{l}", x, stride=2, pad=1)
        x = _conv_in_lrelu(p, f"enc{l}.c1", x)
        x = _conv_in_lrelu(p, f"enc{l}.c2", x)
    for l in range(gen.depth - 2, -1, -1):
        x = ad.nn_upsample(x, 2)
        x = ad.concat([x, skips[l]])
        x = _conv_in_lrelu(p, f"dec{l}.c1", x)
        x = _conv_in_lrelu(p, f"dec{l}.c2", x)
    return ad.conv3d(x, p["out.w"], p["out.b"], stride=1, pad=0)


def forward_discriminator(disc: Discriminator, x: Tensor,
                          mask: Tensor | None = None) -> Tensor:
    """Score a patch; the brain mask is applied to the input when given, so
    voxels outside it can never influence the output."""
    if x.shape[0] != disc.in_channels:
        raise InputError(f"expected {disc.in_channels} channel(s), got {x.shape[0]}")
    if mask is not None:
        x = ad.mul(x, mask)
    p = disc.params
    for l in range(disc.n_layers):
        x = _conv_in_lrelu(p, f"layer{l}", x, stride=2, pad=1)
    return ad.conv3d(x, p["out.w"], p["out.b"], stride=1, pad=1)


def check_adam(lr: float, beta1: float, beta2: float) -> None:
    """Reject settings the bias-corrected update cannot use: a finite lr > 0
    and each beta in [0, 1), so that 1 - beta**t never vanishes."""
    require("lr", lr, gt=0)
    require("beta1", beta1, ge=0, lt=1)
    require("beta2", beta2, ge=0, lt=1)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.5,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter tensors.

    Parameters without an entry in ``grads`` (or with None) are left alone.
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = state.v[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.data -= update.astype(p.data.dtype)
    return state


# per kind: the model class, its layout and the config key counting its levels
_KINDS = {"generator": (Generator, _generator_layout, "depth"),
          "discriminator": (Discriminator, _discriminator_layout, "n_layers")}


def save_checkpoint(model: Generator | Discriminator, path: str | Path) -> None:
    """DBC1: one-line JSON header (kind, config, named shapes), newline, then
    the parameter blobs as little-endian float32 in header order."""
    kind = next((k for k, (cls, *_) in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise InputError(f"cannot checkpoint object of type {type(model).__name__}")
    write_framed(path, {
        "magic": DBC1_MAGIC,
        "kind": kind,
        "config": model.config(),
        "params": [{"name": n, "shape": list(t.data.shape)}
                   for n, t in model.params.items()],
    }, [t.data for t in model.params.values()])


def load_checkpoint(path: str | Path) -> Generator | Discriminator:
    """Read a DBC1 file whose (name, shape) list equals its kind's layout for
    the stored config; no initializer runs."""
    def parse(header: dict) -> tuple:
        kind = header["kind"]
        try:
            if kind not in _KINDS:
                raise MalformedHeaderError(f"{path}: unknown kind {kind!r}")
            cls, layout_of, levels = _KINDS[kind]
            config = header["config"]
            entries = [(e["name"], tuple(e["shape"])) for e in header["params"]]
            # every level adds at least four entries, so a deeper header cannot
            # match, and its layout would cost time and memory quadratic in depth
            if config[levels] > len(entries):
                raise MalformedHeaderError(
                    f"{path}: {levels} {config[levels]} exceeds the header's "
                    f"{len(entries)} parameter entries")
            layout = layout_of(**config)
        except (TypeError, KeyError) as exc:
            raise MalformedHeaderError(f"{path}: bad config or params: {exc}") from exc
        if [n for n, _ in entries] != [n for n, _ in layout]:
            raise MalformedHeaderError(f"{path}: parameter names do not match {kind} config")
        for (name, shape), (_, want) in zip(entries, layout):
            if shape != want:
                raise MalformedHeaderError(
                    f"{path}: shape {shape} for {name} does not match architecture")
        return (cls, config, layout), sum(int(np.prod(s)) for _, s in layout)

    (cls, config, layout), flat = read_framed(
        path, DBC1_MAGIC, ("kind", "config", "params"), parse)
    params, offset = {}, 0
    for name, shape in layout:
        size = int(np.prod(shape))
        params[name] = Tensor(flat[offset:offset + size].reshape(shape).astype(np.float32),
                              requires_grad=True)
        offset += size
    return cls(**config, params=params)
