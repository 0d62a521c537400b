import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from gradcheck import (
    check_input_gradient, check_network_gradients, numeric_gradient, relative_errors,
    to_float64,
)
from reference_batchnorm import running_forward

from abr_arena.neural import (
    BN_EPS, BN_MOMENTUM, LEAKY_SLOPE, Adam, BatchNorm, Conv1D, Dense, LeakyRelu, Relu, RMSProp,
    Sequential, softmax,
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
    y, _ = bn.forward(x)
    assert np.all(np.abs(y.mean(axis=0)) < 1e-5)
    assert np.all(np.abs(y.var(axis=0) - 1.0) < 1e-4)


def test_batchnorm_folds_batch_stats_into_running_stats():
    bn = BatchNorm(3)
    x = rng_for(4).normal(1.0, 2.0, size=(32, 3)).astype(np.float32)
    y, _ = bn.forward(x)
    # One forward from (0, 1) moves the estimates by 1 - momentum.
    assert np.allclose(bn.running_mean, (1 - BN_MOMENTUM) * x.mean(axis=0), rtol=1e-6)
    assert np.allclose(bn.running_var, BN_MOMENTUM + (1 - BN_MOMENTUM) * x.var(axis=0), rtol=1e-6)
    # The output reads the batch's statistics only: the moved estimates
    # change nothing in a second forward of the same batch, which moves them again.
    before = bn.running_mean.copy()
    assert np.array_equal(bn.forward(x)[0], y)
    assert np.allclose(bn.running_mean, (1 - BN_MOMENTUM ** 2) * x.mean(axis=0), rtol=1e-6)
    assert not np.array_equal(bn.running_mean, before)
    # At its running statistics, the normalization the GEM fold bakes in.
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
    assert np.allclose(running_forward(Sequential([bn]), x), expected, atol=1e-6)


# The forms the activations had when their cache was a mask of x > 0.
def masked_relu(x, dy):
    mask = x > 0
    return np.maximum(x, 0), dy * mask


def masked_leaky_relu(x, dy):
    mask = x > 0
    return np.where(mask, x, x * LEAKY_SLOPE), np.where(mask, dy, dy * LEAKY_SLOPE)


def float32_arrays():
    """Float32 vectors mixing normals with +-0, +-inf, NaN and subnormals."""
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 3e-39,
                               -3e-39, 1.1754942e-38, -1.1754942e-38])
    elements = st.one_of(special, st.floats(width=32), st.floats(-10.0, 10.0, width=32))
    return hnp.arrays(np.float32, st.integers(1, 40), elements=elements)


def same_bits(a, b):
    """Equal values and sign bits, NaN where the other is NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b)) and np.array_equal(np.signbit(a), np.signbit(b))
            and np.array_equal(a[~nan].view(np.uint32), b[~nan].view(np.uint32)))


@settings(max_examples=300, deadline=None)
@given(x=float32_arrays(), data=st.data())
def test_activations_equal_their_masked_forms(x, data):
    # A finite upstream gradient: inf * 0 is NaN, raising in both forms alike.
    dy = data.draw(hnp.arrays(np.float32, x.shape,
                              elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    for layer, reference in ((Relu(), masked_relu), (LeakyRelu(), masked_leaky_relu)):
        y, cache = layer.forward(x)
        dx, grads = layer.backward(cache, dy)
        want_y, want_dx = reference(x, dy)
        assert y.dtype == dx.dtype == np.float32 and grads == []
        assert same_bits(y, want_y) and same_bits(dx, want_dx)


# ---- gradient fidelity -----------------------------------------------------

LAYER_CASES = {
    "dense": (lambda rng: Sequential([Dense(3, 4, rng=rng)]), (5, 3)),
    "conv1d": (lambda rng: Sequential([Conv1D(2, 3, 3, rng=rng)]), (4, 2, 7)),
    "batchnorm": (lambda rng: Sequential([BatchNorm(4)]), (8, 4)),
    "relu": (lambda rng: Sequential([Relu()]), (6, 5)),
    "leaky_relu": (lambda rng: Sequential([LeakyRelu()]), (6, 5)),
}


def make_case(kind, seed):
    build, shape = LAYER_CASES[kind]
    rng = rng_for(seed)
    net = build(rng)
    x = rng.normal(0.0, 1.0, size=shape).astype(np.float32)
    # Keep inputs away from the ReLU-family kink so differences stay clean.
    if kind in ("relu", "leaky_relu"):
        x = x + np.sign(x).astype(np.float32) * 0.05
    sample_y, _ = net.forward(x)
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
        y, caches = twin.forward(x64)
        dx, grads = twin.backward(caches, coeff64)

        def loss64():
            out, _ = twin.forward(x64)
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
        y, caches = net.forward(x)
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
    opt = RMSProp([param], lr=1e-4)
    opt.step([np.array([1.0], dtype=np.float32)])
    assert param[0] == pytest.approx(-1e-4 / np.sqrt(0.1 + 1e-8), rel=1e-5)


def formula_steps(kind, param, grads, lr):
    """The optimizer's update written out with fresh arrays each step."""
    m, v = np.zeros_like(param), np.zeros_like(param)
    for t, g in enumerate(grads, start=1):
        if kind == "adam":
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            param -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        else:
            v = 0.9 * v + (1.0 - 0.9) * (g * g)
            param -= lr * g / np.sqrt(v + 1e-8)
    return param


@pytest.mark.parametrize("kind", ["adam", "rmsprop"])
def test_optimizer_steps_equal_formula_bitwise(kind):
    rng = rng_for(7)
    start = rng.normal(size=(6, 4)).astype(np.float32)
    # Column halves of one array: gradients may be non-contiguous views.
    grads = [np.hsplit(rng.normal(size=(6, 8)).astype(np.float32), 2)[0] for _ in range(5)]
    param = start.copy()
    opt = Adam([param], lr=1e-2) if kind == "adam" else RMSProp([param], lr=1e-2)
    for g in grads:
        opt.step([g])
    assert np.array_equal(param, formula_steps(kind, start.copy(), grads, 1e-2))


def test_optimizer_shape_validation():
    param = np.zeros(3, dtype=np.float32)
    opt = Adam([param], lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.zeros(2, dtype=np.float32)])
    with pytest.raises(ValueError):
        opt.step([])


# ---- initialization ------------------------------------------------------

def test_seeded_init_is_deterministic():
    a = Sequential([Dense(5, 5, rng=rng_for(42)), Conv1D(1, 2, 3, rng=rng_for(42))])
    b = Sequential([Dense(5, 5, rng=rng_for(42)), Conv1D(1, 2, 3, rng=rng_for(42))])
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)


# ---- persistence -----------------------------------------------------------

def build_demo_net(seed):
    rng = rng_for(seed)
    return Sequential([
        Dense(6, 8, rng=rng), BatchNorm(8), LeakyRelu(),
        Dense(8, 4, rng=rng), Relu(),
    ])


def test_save_load_round_trip_bitwise(tmp_path):
    # A checkpoint stores each layer's ndarray attributes and nothing else, so
    # those must be a network's whole state: copied through a file into a
    # differently seeded twin, they reproduce its outputs bitwise, at the
    # running statistics and at the batch's.
    net = build_demo_net(9)
    x = rng_for(10).normal(size=(4, 6)).astype(np.float32)
    net.forward(x)  # move the BN running stats off their init
    path = tmp_path / "net.npz"
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **{
            f"{i}.{attr}": value for i, layer in enumerate(net.layers)
            for attr, value in vars(layer).items() if isinstance(value, np.ndarray)})
    loaded = build_demo_net(11)
    y_orig = running_forward(net, x)
    assert not np.array_equal(y_orig, running_forward(loaded, x))
    with np.load(path, allow_pickle=False) as stored:
        for name in stored.files:
            i, attr = name.split(".")
            getattr(loaded.layers[int(i)], attr)[...] = stored[name]
    assert np.array_equal(y_orig, running_forward(loaded, x))
    assert np.array_equal(net.forward(x)[0], loaded.forward(x)[0])
