"""Generator/discriminator architectures, Adam, and DBC1 checkpoints."""

import json

import numpy as np
import pytest

from qsmkit import autodiff as ad
from qsmkit import network
from qsmkit.autodiff import Tensor, backward, check_gradients
from qsmkit.errors import (
    InputError,
    MalformedHeaderError,
    NonFinitePayloadError,
    PayloadSizeError,
)
from qsmkit.network import (
    AdamState,
    Discriminator,
    Generator,
    _trunc_normal,
    adam_step,
    build_discriminator,
    build_generator,
    forward_discriminator,
    forward_generator,
    load_checkpoint,
    save_checkpoint,
)


class _ParamBuilder:
    """Reference for the layout-driven builders: parameters are drawn and
    named while the architecture is walked."""

    def __init__(self, rng: np.random.Generator, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def conv(self, name: str, c_in: int, c_out: int, k: int) -> None:
        w = _trunc_normal(self.rng, (c_out, c_in, k, k, k))
        self.params[f"{name}.w"] = Tensor(w.astype(self.dtype), requires_grad=True)
        self.params[f"{name}.b"] = Tensor(np.zeros(c_out, dtype=self.dtype),
                                          requires_grad=True)

    def norm(self, name: str, c: int) -> None:
        self.params[f"{name}.gamma"] = Tensor(np.ones((c, 1, 1, 1), dtype=self.dtype),
                                              requires_grad=True)
        self.params[f"{name}.beta"] = Tensor(np.zeros((c, 1, 1, 1), dtype=self.dtype),
                                             requires_grad=True)


def oracle_generator(depth, base_channels, in_channels, seed, dtype):
    rng = np.random.default_rng(seed)
    pb = _ParamBuilder(rng, dtype)
    ch = [base_channels * 2 ** l for l in range(depth)]
    for l in range(depth):
        if l > 0:
            pb.conv(f"down{l}", ch[l - 1], ch[l], 3)
            pb.norm(f"down{l}", ch[l])
        c_in = in_channels if l == 0 else ch[l]
        pb.conv(f"enc{l}.c1", c_in, ch[l], 3)
        pb.norm(f"enc{l}.c1", ch[l])
        pb.conv(f"enc{l}.c2", ch[l], ch[l], 3)
        pb.norm(f"enc{l}.c2", ch[l])
    for l in range(depth - 2, -1, -1):
        pb.conv(f"dec{l}.c1", ch[l + 1] + ch[l], ch[l], 3)
        pb.norm(f"dec{l}.c1", ch[l])
        pb.conv(f"dec{l}.c2", ch[l], ch[l], 3)
        pb.norm(f"dec{l}.c2", ch[l])
    pb.conv("out", ch[0], 1, 1)
    return pb.params


def oracle_discriminator(n_layers, base_channels, in_channels, seed, dtype):
    rng = np.random.default_rng(seed)
    pb = _ParamBuilder(rng, dtype)
    c_prev = in_channels
    for l in range(n_layers):
        c = base_channels * 2 ** l
        pb.conv(f"layer{l}", c_prev, c, 4)
        pb.norm(f"layer{l}", c)
        c_prev = c
    pb.conv("out", c_prev, 1, 4)
    return pb.params


def assert_same_params(got: dict, want: dict):
    assert list(got) == list(want)
    for name in want:
        assert got[name].data.dtype == want[name].data.dtype, name
        assert got[name].requires_grad, name
        np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)


def tiny_generator(seed=0):
    return build_generator(depth=2, base_channels=4, seed=seed)


def tiny_discriminator(seed=0):
    return build_discriminator(n_layers=2, base_channels=4, seed=seed)


def rand_pair(rng, dims):
    phase = Tensor(rng.normal(size=(1,) + dims).astype(np.float32))
    mag = Tensor(rng.uniform(0.5, 1.0, size=(1,) + dims).astype(np.float32))
    return phase, mag


class TestGeneratorBuild:
    def test_channel_schedule(self):
        g = build_generator(depth=3, base_channels=16)
        assert g.params["enc0.c1.w"].shape == (16, 2, 3, 3, 3)
        assert g.params["down1.w"].shape == (32, 16, 3, 3, 3)
        assert g.params["down2.w"].shape == (64, 32, 3, 3, 3)
        assert g.params["dec1.c1.w"].shape == (32, 64 + 32, 3, 3, 3)
        assert g.params["dec0.c1.w"].shape == (16, 32 + 16, 3, 3, 3)
        assert g.params["out.w"].shape == (1, 16, 1, 1, 1)
        assert g.divisor == 4

    def test_init_statistics(self):
        from scipy.stats import truncnorm
        g = build_generator(depth=3, base_channels=16, seed=7)
        w = g.params["dec1.c1.w"].data
        assert np.abs(w).max() <= 2.0 * 0.02 + 1e-6
        want_std = truncnorm.std(-2.0, 2.0, scale=0.02)
        assert abs(w.std() - want_std) < 0.0005
        np.testing.assert_array_equal(g.params["enc0.c1.b"].data, 0.0)
        np.testing.assert_array_equal(g.params["enc0.c1.gamma"].data, 1.0)
        np.testing.assert_array_equal(g.params["enc0.c1.beta"].data, 0.0)

    def test_seed_determinism(self):
        a = build_generator(seed=3)
        b = build_generator(seed=3)
        c = build_generator(seed=4)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)

    def test_bad_config(self):
        with pytest.raises(InputError):
            build_generator(depth=0)


class TestBuilderOracle:
    """The layout-driven builders give the names, order, shapes, dtypes and
    values of the architecture-walking builders they replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("channels,in_channels", [(1, 1), (3, 2), (4, 2), (16, 3)])
    def test_generator(self, depth, channels, in_channels, dtype):
        seed = 10 * depth + channels
        got = build_generator(depth=depth, base_channels=channels,
                              in_channels=in_channels, seed=seed, dtype=dtype)
        assert_same_params(got.params,
                           oracle_generator(depth, channels, in_channels, seed, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("channels,in_channels", [(1, 1), (3, 2), (4, 1), (16, 1)])
    def test_discriminator(self, n_layers, channels, in_channels, dtype):
        seed = 10 * n_layers + channels
        got = build_discriminator(n_layers=n_layers, base_channels=channels,
                                  in_channels=in_channels, seed=seed, dtype=dtype)
        assert_same_params(got.params, oracle_discriminator(
            n_layers, channels, in_channels, seed, dtype))


class TestGeneratorForward:
    def test_output_shape_and_channels(self):
        g = tiny_generator()
        rng = np.random.default_rng(0)
        phase, mag = rand_pair(rng, (8, 16, 8))
        out = forward_generator(g, phase, mag)
        assert out.shape == (1, 8, 16, 8)

    def test_zero_final_layer_gives_zero_output(self):
        g = tiny_generator()
        g.params["out.w"].data[:] = 0.0
        g.params["out.b"].data[:] = 0.0
        rng = np.random.default_rng(1)
        phase, mag = rand_pair(rng, (8, 8, 8))
        out = forward_generator(g, phase, mag)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_indivisible_dims_name_required_padding(self):
        g = build_generator(depth=3, base_channels=4)
        rng = np.random.default_rng(2)
        phase, mag = rand_pair(rng, (8, 9, 8))
        with pytest.raises(InputError, match="divisible by 4"):
            forward_generator(g, phase, mag)

    def test_shape_mismatch(self):
        g = tiny_generator()
        rng = np.random.default_rng(3)
        phase, _ = rand_pair(rng, (8, 8, 8))
        _, mag = rand_pair(rng, (8, 8, 4))
        with pytest.raises(InputError):
            forward_generator(g, phase, mag)

    def test_forward_is_pure(self):
        g = tiny_generator()
        rng = np.random.default_rng(4)
        phase, mag = rand_pair(rng, (8, 8, 8))
        a = forward_generator(g, phase, mag).data
        b = forward_generator(g, phase, mag).data
        np.testing.assert_array_equal(a, b)

    def test_all_parameters_receive_gradients(self):
        g = tiny_generator()
        rng = np.random.default_rng(5)
        phase, mag = rand_pair(rng, (4, 4, 4))
        backward(ad.tsum(forward_generator(g, phase, mag)))
        missing = [n for n, p in g.params.items() if p.grad is None]
        assert missing == []

    def test_parameter_gradcheck(self):
        # spot-check a few parameter tensors through the whole net on an 8^3
        # input; full per-op coverage lives in the gradcheck suite. Double
        # precision keeps the finite-difference probe small enough that no
        # leaky-relu kink is crossed.
        g = build_generator(depth=2, base_channels=4, dtype=np.float64)
        rng = np.random.default_rng(6)
        phase = Tensor(rng.normal(size=(1, 8, 8, 8)), dtype=np.float64)
        mag = Tensor(rng.uniform(0.5, 1.0, size=(1, 8, 8, 8)), dtype=np.float64)
        wsum = Tensor(rng.normal(size=(1, 8, 8, 8)), dtype=np.float64)
        checked = [g.params[n] for n in ("enc0.c1.w", "dec0.c1.gamma", "out.b")]

        def f():
            return ad.tsum(ad.mul(forward_generator(g, phase, mag), wsum))

        err = check_gradients(f, checked, rng=np.random.default_rng(0), samples=4)
        assert err < 1e-3


class TestDiscriminator:
    def test_patch_map_shape_follows_stride_formula(self):
        d = build_discriminator(n_layers=3, base_channels=8)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 16, 16, 32)).astype(np.float32))
        out = forward_discriminator(d, x)
        # three stride-2 layers then a stride-1 4^3 conv with pad 1
        dims = [16, 16, 32]
        for _ in range(3):
            dims = [(n + 2 - 4) // 2 + 1 for n in dims]
        dims = [(n + 2 - 4) + 1 for n in dims]
        assert out.shape == (1,) + tuple(dims)

    def test_deterministic(self):
        d = tiny_discriminator()
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(forward_discriminator(d, x).data,
                                      forward_discriminator(d, x).data)

    def test_channel_validation(self):
        d = tiny_discriminator()
        x = Tensor(np.zeros((2, 8, 8, 8), dtype=np.float32))
        with pytest.raises(InputError):
            forward_discriminator(d, x)

    def test_mask_blocks_outside_voxels(self):
        # poisoning voxels outside the mask must not change the output bits
        d = tiny_discriminator()
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        mask = (rng.uniform(size=(1, 8, 8, 8)) > 0.4).astype(np.float32)
        poisoned = x + (1.0 - mask) * rng.normal(0, 100, size=x.shape).astype(np.float32)
        a = forward_discriminator(d, Tensor(x), mask=Tensor(mask)).data
        b = forward_discriminator(d, Tensor(poisoned), mask=Tensor(mask)).data
        np.testing.assert_array_equal(a, b)

    def test_gradcheck_through_discriminator(self):
        d = build_discriminator(n_layers=2, base_channels=4, dtype=np.float64)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(1, 8, 8, 8)), requires_grad=True,
                   dtype=np.float64)

        def f():
            return ad.tsum(forward_discriminator(d, x))

        err = check_gradients(f, [x], rng=np.random.default_rng(1), samples=6)
        assert err < 1e-3


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = {"w": Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)}
        state = AdamState()
        adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, lr=0.1)
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])

    def test_missing_grad_skipped(self):
        p = {"w": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
        adam_step(p, {}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p["w"].data, [1.0])

    def test_constant_gradient_approaches_signed_step(self):
        p = {"w": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)}
        state = AdamState()
        g = np.array([0.25])
        prev = 0.0
        for _ in range(50):
            adam_step(p, {"w": g}, state, lr=1e-3)
            step = prev - float(p["w"].data[0])
            prev = float(p["w"].data[0])
        assert abs(step - 1e-3) < 1e-6  # lr * sign(g)

    def test_two_step_trace_matches_hand_computation(self):
        lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
        g1, g2 = 0.3, -0.1
        p = {"w": Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)}
        state = AdamState()
        adam_step(p, {"w": np.array([g1])}, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = (1 - b1) * g1
        v = (1 - b2) * g1 ** 2
        w1 = 1.0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert abs(float(p["w"].data[0]) - w1) < 1e-10
        adam_step(p, {"w": np.array([g2])}, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 ** 2
        w2 = w1 - lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)
        assert abs(float(p["w"].data[0]) - w2) < 1e-10

    def test_state_counts_steps(self):
        p = {"w": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
        state = AdamState()
        for _ in range(3):
            adam_step(p, {"w": np.array([1.0], dtype=np.float32)}, state, lr=0.1)
        assert state.t == 3


class TestCheckpoints:
    def test_generator_round_trip(self, tmp_path):
        g = build_generator(depth=2, base_channels=4, seed=5)
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        g2 = load_checkpoint(path)
        assert isinstance(g2, Generator)
        assert g2.config() == g.config()
        for name in g.params:
            np.testing.assert_array_equal(g.params[name].data, g2.params[name].data)

    def test_discriminator_round_trip_bytes(self, tmp_path):
        d = build_discriminator(n_layers=2, base_channels=4, seed=6)
        p1 = tmp_path / "d1.dbc1"
        p2 = tmp_path / "d2.dbc1"
        save_checkpoint(d, p1)
        d2 = load_checkpoint(p1)
        assert isinstance(d2, Discriminator)
        save_checkpoint(d2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_params_are_trainable(self, tmp_path):
        g = tiny_generator()
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        g2 = load_checkpoint(path)
        assert all(p.requires_grad for p in g2.params.values())
        assert all(p.dtype == np.float32 for p in g2.params.values())

    def test_malformed_headers(self, tmp_path):
        path = tmp_path / "bad.dbc1"
        cases = [
            b"no newline at all",
            b"not json\n",
            json.dumps({"magic": "NOPE"}).encode() + b"\n",
            json.dumps({"magic": "DBC1", "kind": "generator"}).encode() + b"\n",
            json.dumps({"magic": "DBC1", "kind": "what", "config": {},
                        "params": []}).encode() + b"\n",
        ]
        for raw in cases:
            path.write_bytes(raw)
            with pytest.raises(MalformedHeaderError):
                load_checkpoint(path)

    def test_payload_size_mismatch(self, tmp_path):
        g = tiny_generator()
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(PayloadSizeError):
            load_checkpoint(path)

    def test_nonfinite_payload(self, tmp_path):
        g = tiny_generator()
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        raw = bytearray(path.read_bytes())
        nl = raw.index(b"\n")
        raw[nl + 1:nl + 5] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFinitePayloadError):
            load_checkpoint(path)

    def test_param_name_mismatch(self, tmp_path):
        g = tiny_generator()
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["params"][0]["name"] = "enc9.c9.w"
        path.write_bytes(json.dumps(header).encode() + raw[nl:])
        with pytest.raises(MalformedHeaderError):
            load_checkpoint(path)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        g = build_generator(depth=3, base_channels=4, seed=2)
        d = build_discriminator(n_layers=2, base_channels=4, seed=3)
        save_checkpoint(g, tmp_path / "g.dbc1")
        save_checkpoint(d, tmp_path / "d.dbc1")

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint ran the initializer")

        monkeypatch.setattr(network, "_trunc_normal", no_init)
        for model, name in ((g, "g.dbc1"), (d, "d.dbc1")):
            loaded = load_checkpoint(tmp_path / name)
            assert type(loaded) is type(model) and loaded.config() == model.config()
            assert_same_params(loaded.params, model.params)

    @pytest.mark.parametrize("model,levels", [
        (build_generator(depth=2, base_channels=2), "depth"),
        (build_discriminator(n_layers=2, base_channels=2), "n_layers")])
    def test_oversized_depth_rejected_before_layout(self, model, levels, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "m.dbc1"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["config"][levels] = 20000
        path.write_bytes(json.dumps(header).encode() + raw[nl:])

        def no_layout(*args, **kwargs):
            raise AssertionError("load_checkpoint built the layout")

        kind = header["kind"]
        cls, _, *rest = network._KINDS[kind]
        monkeypatch.setitem(network._KINDS, kind, (cls, no_layout, *rest))
        with pytest.raises(MalformedHeaderError, match=f"{levels} 20000 exceeds"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        g = tiny_generator()
        path = tmp_path / "g.dbc1"
        save_checkpoint(g, path)
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["params"][1]["shape"] = [2, 2]
        path.write_bytes(json.dumps(header).encode() + raw[nl:])
        with pytest.raises(MalformedHeaderError, match="does not match architecture"):
            load_checkpoint(path)

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(InputError):
            save_checkpoint(object(), tmp_path / "x.dbc1")
