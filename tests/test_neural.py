import numpy as np
import pytest
from gradcheck import (
    check_input_gradient, check_network_gradients, numeric_gradient, relative_errors,
    to_float64,
)

from abr_arena.neural import (
    Adam, BatchNorm, Conv1D, Dense, LeakyRelu, Relu, RMSProp, Sequential, Sigmoid,
    Softmax, load, load_bundle, save, save_bundle, sequential_from_spec, softmax,
)


def rng_for(seed):
    return np.random.default_rng(seed)


# ---- forward oracles -------------------------------------------------------

def test_dense_identity():
    layer = Dense(3, 3)
    layer.weight[:] = np.eye(3, dtype=np.float32)
    x = np.array([[1.0, -2.0, 0.5]], dtype=np.float32)
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)


def test_conv1d_hand_example():
    conv = Conv1D(1, 1, 3)
    conv.weight[:] = 1.0
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)
    y, _ = conv.forward(x)
    assert np.array_equal(y[0, 0], np.array([6.0, 9.0], dtype=np.float32))


def test_softmax_uniform_and_sum():
    assert np.allclose(softmax(np.zeros((1, 2), dtype=np.float32)), [[0.5, 0.5]])
    logits = rng_for(0).normal(0, 5, size=(32, 7)).astype(np.float32)
    probs = softmax(logits)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_dense_backward_hand_example():
    # d/dw of (w*x - y)^2 at w=1, x=2, y=0 is 2*2*2 = 8.
    layer = Dense(1, 1)
    layer.weight[:] = 1.0
    x = np.array([[2.0]], dtype=np.float32)
    y, cache = layer.forward(x)
    dy = 2.0 * y
    _, (grad_w, grad_b) = layer.backward(cache, dy)
    assert grad_w[0, 0] == 8.0
    assert grad_b[0] == 4.0


def test_zero_upstream_gradient_gives_zero_grads():
    net = Sequential([Dense(4, 8, rng=rng_for(0)), Relu(), Dense(8, 2, rng=rng_for(1))])
    x = rng_for(2).normal(size=(3, 4)).astype(np.float32)
    y, caches = net.forward(x)
    _, grads = net.backward(caches, np.zeros_like(y))
    assert all(np.all(g == 0) for g in grads)


def test_forward_shape_and_finite_errors():
    net = Sequential([Dense(4, 2, rng=rng_for(0))])
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 3), dtype=np.float32))
    bad = Sequential([Dense(2, 2)])
    bad.layers[0].weight[:] = np.float32("nan")
    with pytest.raises(FloatingPointError):
        bad.forward(np.ones((1, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        net.backward([], np.zeros((1, 2), dtype=np.float32))


def test_batchnorm_training_statistics():
    bn = BatchNorm(6)
    x = rng_for(3).normal(2.0, 3.0, size=(64, 6)).astype(np.float32)
    y, _ = bn.forward(x, training=True)
    assert np.all(np.abs(y.mean(axis=0)) < 1e-5)
    assert np.all(np.abs(y.var(axis=0) - 1.0) < 1e-4)


def test_batchnorm_inference_uses_running_stats():
    bn = BatchNorm(3, momentum=0.5)
    x = rng_for(4).normal(1.0, 2.0, size=(32, 3)).astype(np.float32)
    bn.forward(x, training=True)
    y_inf, _ = bn.forward(x, training=False)
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    assert np.allclose(y_inf, expected, atol=1e-6)
    # Inference mode must not move the running statistics.
    before = bn.running_mean.copy()
    bn.forward(x, training=False)
    assert np.array_equal(bn.running_mean, before)


# ---- gradient fidelity -----------------------------------------------------

LAYER_CASES = {
    "dense": (lambda rng: Sequential([Dense(3, 4, rng=rng)]), (5, 3)),
    "conv1d": (lambda rng: Sequential([Conv1D(2, 3, 3, rng=rng)]), (4, 2, 7)),
    "batchnorm": (lambda rng: Sequential([BatchNorm(4)]), (8, 4)),
    "relu": (lambda rng: Sequential([Relu()]), (6, 5)),
    "leaky_relu": (lambda rng: Sequential([LeakyRelu()]), (6, 5)),
    "sigmoid": (lambda rng: Sequential([Sigmoid()]), (6, 5)),
    "softmax": (lambda rng: Sequential([Softmax()]), (6, 5)),
}


def make_case(kind, seed):
    build, shape = LAYER_CASES[kind]
    rng = rng_for(seed)
    net = build(rng)
    x = rng.normal(0.0, 1.0, size=shape).astype(np.float32)
    # Keep inputs away from the ReLU-family kink so differences stay clean.
    if kind in ("relu", "leaky_relu"):
        x = x + np.sign(x).astype(np.float32) * 0.05
    sample_y, _ = net.forward(x, training=True)
    coeff = rng.normal(0.0, 1.0, size=sample_y.shape).astype(np.float32)
    return net, x, coeff


@pytest.mark.parametrize("kind", sorted(LAYER_CASES))
def test_layer_gradients_float64_exact(kind):
    """The backward formulas themselves, checked in float64 end to end."""
    for seed in range(3):
        net, x, coeff = make_case(kind, seed)
        twin = to_float64(net)
        x64 = x.astype(np.float64)
        coeff64 = coeff.astype(np.float64)
        y, caches = twin.forward(x64, training=True)
        dx, grads = twin.backward(caches, coeff64)

        def loss64():
            out, _ = twin.forward(x64, training=True)
            return float((out * coeff64).sum())

        for param, grad in zip(twin.params(), grads):
            numeric = numeric_gradient(loss64, param, range(param.size), step=1e-5)
            errs = relative_errors(grad, numeric, floor=1e-7)
            assert max(errs) < 1e-5
        numeric_dx = numeric_gradient(loss64, x64, range(min(x64.size, 40)), step=1e-5)
        errs = relative_errors(dx, numeric_dx, floor=1e-7)
        assert max(errs) < 1e-5


@pytest.mark.parametrize("kind", sorted(LAYER_CASES))
def test_layer_gradients_float32_production(kind):
    """The float32 production path against the float64 difference oracle."""
    all_errors = []
    for seed in range(10):
        net, x, coeff = make_case(kind, seed)
        y, caches = net.forward(x, training=True)
        dx, grads = net.backward(caches, coeff)
        rng = rng_for(1000 + seed)
        all_errors += check_network_gradients(net, x, coeff, grads, rng=rng)
        all_errors += check_input_gradient(net, x, coeff, dx, rng=rng)
    assert max(all_errors) < 1e-2
    assert float(np.median(all_errors)) < 1e-3


# ---- optimizers ------------------------------------------------------------

def test_optimizers_fixed_point_on_zero_gradients():
    for make in (lambda p: Adam([p], lr=0.1), lambda p: RMSProp([p], lr=0.1)):
        param = np.array([1.0, -2.0], dtype=np.float32)
        opt = make(param)
        opt.step([np.zeros_like(param)])
        assert np.array_equal(param, np.array([1.0, -2.0], dtype=np.float32))


def test_adam_first_step_is_signed_lr():
    param = np.array([0.0, 0.0, 0.0], dtype=np.float32)
    opt = Adam([param], lr=1e-3)
    opt.step([np.array([0.5, -3.0, 10.0], dtype=np.float32)])
    assert np.allclose(param, [-1e-3, 1e-3, -1e-3], rtol=1e-4)


def test_rmsprop_first_step_value():
    param = np.array([0.0], dtype=np.float32)
    opt = RMSProp([param], lr=1e-4, decay=0.9)
    opt.step([np.array([1.0], dtype=np.float32)])
    assert param[0] == pytest.approx(-1e-4 / np.sqrt(0.1 + 1e-8), rel=1e-5)


def test_optimizer_shape_validation():
    param = np.zeros(3, dtype=np.float32)
    opt = Adam([param], lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.zeros(2, dtype=np.float32)])
    with pytest.raises(ValueError):
        opt.step([])


# ---- persistence -----------------------------------------------------------

def build_demo_net(seed):
    rng = rng_for(seed)
    return Sequential([
        Dense(6, 8, rng=rng), BatchNorm(8), LeakyRelu(),
        Dense(8, 4, rng=rng), Softmax(),
    ])


def test_save_load_round_trip_bitwise(tmp_path):
    net = build_demo_net(9)
    x = rng_for(10).normal(size=(4, 6)).astype(np.float32)
    net.forward(x, training=True)  # move the BN running stats off their init
    path = tmp_path / "net.ckpt"
    save(net, path)
    loaded = load(path)
    y_orig, _ = net.forward(x, training=False)
    y_loaded, _ = loaded.forward(x, training=False)
    assert np.array_equal(y_orig, y_loaded)


def test_checkpoint_corruption_detected(tmp_path):
    net = build_demo_net(11)
    path = tmp_path / "net.ckpt"
    save(net, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load(bad_magic)

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(ValueError, match="version"):
        load(bad_version)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-17])
    with pytest.raises(ValueError, match="truncated"):
        load(truncated)

    trailing = tmp_path / "long.ckpt"
    trailing.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load(trailing)


def test_failed_save_keeps_existing_checkpoint(tmp_path):
    path = tmp_path / "net.ckpt"
    save_bundle(path, {"net": build_demo_net(12)})
    before = path.read_bytes()
    broken = build_demo_net(13)
    # The last parameter cannot be written as float32, so the write fails
    # after the header and the earlier arrays.
    broken.layers[3].bias = np.array(["not a number"] * 4, dtype=object)
    with pytest.raises(ValueError):
        save_bundle(path, {"net": broken})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


def test_bundle_round_trip_with_extra(tmp_path):
    nets = {"a": build_demo_net(1), "b": Sequential([Dense(2, 2, rng=rng_for(2))])}
    path = tmp_path / "bundle.ckpt"
    save_bundle(path, nets, extra={"note": "hello", "value": 3})
    loaded, extra = load_bundle(path)
    assert extra == {"note": "hello", "value": 3}
    assert set(loaded) == {"a", "b"}
    for name in nets:
        for src, dst in zip(nets[name].params(), loaded[name].params()):
            assert np.array_equal(src, dst)


def test_spec_round_trip_preserves_architecture():
    net = build_demo_net(3)
    rebuilt = sequential_from_spec(net.spec())
    assert rebuilt.spec() == net.spec()
    assert [p.shape for p in rebuilt.params()] == [p.shape for p in net.params()]


def test_seeded_init_is_deterministic():
    a = Sequential([Dense(5, 5, rng=rng_for(42)), Conv1D(1, 2, 3, rng=rng_for(42))])
    b = Sequential([Dense(5, 5, rng=rng_for(42)), Conv1D(1, 2, 3, rng=rng_for(42))])
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)
