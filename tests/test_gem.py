from collections import deque

import numpy as np
import pytest
from gradcheck import gradient_errors, to_float64
from reference_batchnorm import running_forward

from abr_arena import gem as gem_module
from abr_arena.gem import GEM_BATCH, HIDDEN_SIZE, GemModule
from abr_arena.neural import BatchNorm, Dense, LeakyRelu

STATE_DIM = 20


def make_gem(seed=0):
    return GemModule(STATE_DIM, rng=np.random.default_rng(seed))


def session_rows(num_steps, fill=1.0):
    """A played session's flat rows, whose step i has the hidden feature
    fill * (i + 1)."""
    rows = np.zeros((num_steps, STATE_DIM + HIDDEN_SIZE), dtype=np.float32)
    rows[:, :STATE_DIM] = -1.0
    rows[:, STATE_DIM:] = fill * np.arange(1, num_steps + 1)[:, None]
    return rows


def test_gen_hidden_deterministic_and_finite():
    gem = make_gem()
    states = np.random.default_rng(1).normal(size=(5, STATE_DIM)).astype(np.float32)
    prev_rows = np.concatenate([states, np.zeros((5, HIDDEN_SIZE), dtype=np.float32)], axis=1)
    net = gem.inference()
    h1 = gem.hidden_for(prev_rows, net)
    assert h1.shape == (5, HIDDEN_SIZE)
    assert np.all(np.isfinite(h1))
    assert np.array_equal(gem.hidden_for(prev_rows, net), h1)
    # Rows are independent through the fold: one row alone gives its own feature.
    np.testing.assert_allclose(gem.hidden_for(prev_rows[2:3], net)[0], h1[2],
                               rtol=1e-6, atol=1e-7)
    with pytest.raises(ValueError):
        gem.hidden_for(prev_rows[:, :-4], net)


def moved_gem():
    """A GEM after three updates, so its batch-norm running statistics are
    off their initial (0, 1), and inputs drawn for it."""
    gem = make_gem(10)
    gem.collect(session_rows(12, fill=0.3)[None])
    inputs = np.random.default_rng(11).normal(size=(40, STATE_DIM + HIDDEN_SIZE)).astype(np.float32)
    for seed in range(3):
        assert not gem.update(inputs, np.random.default_rng(seed)).skipped
    for bn in (layer for layer in gem.gen.layers if isinstance(layer, BatchNorm)):
        assert np.all(bn.running_mean != 0.0) and np.all(bn.running_var != 1.0)
    return gem, inputs


def test_inference_folds_batch_norms_at_running_statistics():
    gem, inputs = moved_gem()
    net = gem.inference()
    assert [type(layer) for layer in net.layers] == [Dense, LeakyRelu, Dense, LeakyRelu, Dense]
    want = running_forward(gem.gen, inputs)
    got = gem.hidden_for(inputs, net)
    # A float32 forward computed in another order: a few ulps per layer.
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
    # The oracle moved no statistic: a second fold plays the same network.
    assert np.array_equal(gem.hidden_for(inputs, gem.inference()), got)


def test_inference_shares_no_array_with_the_generator():
    gem, inputs = moved_gem()
    live = [a for layer in gem.gen.layers for a in vars(layer).values()
            if isinstance(a, np.ndarray)]
    before = [a.copy() for a in live]
    net = gem.inference()
    want = gem.hidden_for(inputs, net)
    for p in net.params():
        assert not any(np.shares_memory(p, a) for a in live)
        p[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(live, before))
    assert np.array_equal(gem.hidden_for(inputs, gem.inference()), want)


def constant_disc(gem, value):
    """Make the discriminator score every sample ``value``: its last dense
    layer gets zero weight and a constant bias."""
    out = gem.disc.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = value
    return gem


class HalvesDisc:
    """Scores the first ``n_real`` rows of a batch one way and the rest another."""

    def __init__(self, real_value, fake_value, n_real=8):
        self.real_value, self.fake_value, self.n_real = real_value, fake_value, n_real

    def forward(self, x):
        out = np.full((len(x), 1), self.fake_value, dtype=np.float32)
        out[:self.n_real] = self.real_value
        return out, None

    def backward(self, cache, d_out):
        return np.zeros((len(d_out), HIDDEN_SIZE), dtype=np.float32), []


def test_d_loss_constants():
    real = np.zeros((8, HIDDEN_SIZE), dtype=np.float32)
    fake = np.zeros((8, HIDDEN_SIZE), dtype=np.float32)
    assert constant_disc(make_gem(), 0.5).disc_gradients(real, fake)[0] == pytest.approx(0.25)
    assert constant_disc(make_gem(), 0.0).disc_gradients(real, fake)[0] == pytest.approx(0.5)
    assert constant_disc(make_gem(), 1.0).disc_gradients(real, fake)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        make_gem().disc_gradients(real[:0], fake)


def test_g_loss_constants():
    inputs = np.zeros((8, STATE_DIM + HIDDEN_SIZE), dtype=np.float32)
    assert constant_disc(make_gem(), 1.0).gen_gradients(inputs)[0] == pytest.approx(0.0)
    assert constant_disc(make_gem(), 0.0).gen_gradients(inputs)[0] == pytest.approx(0.5)
    assert constant_disc(make_gem(), 0.5).gen_gradients(inputs)[0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        make_gem().gen_gradients(inputs[:0])


def test_d_loss_mixed_halves():
    gem = make_gem()
    real = np.zeros((8, HIDDEN_SIZE), dtype=np.float32)
    fake = np.zeros((8, HIDDEN_SIZE), dtype=np.float32)
    gem.disc = HalvesDisc(1.0, 0.0)
    assert gem.disc_gradients(real, fake)[0] == pytest.approx(0.0)
    # D(real)=0.5, D(fake)=0 -> 0.5*0.25 + 0.5*0 = 0.125
    gem.disc = HalvesDisc(0.5, 0.0)
    assert gem.disc_gradients(real, fake)[0] == pytest.approx(0.125)


def test_losses_nonnegative_and_finite():
    gem = make_gem(3)
    rng = np.random.default_rng(4)
    win = rng.normal(size=(32, HIDDEN_SIZE)).astype(np.float32)
    inputs = rng.normal(size=(32, STATE_DIM + HIDDEN_SIZE)).astype(np.float32)
    fake, _ = gem.gen.forward(inputs)
    d_value, _ = gem.disc_gradients(win, fake)
    g_value, _ = gem.gen_gradients(inputs)
    assert d_value >= 0.0 and np.isfinite(d_value)
    assert g_value >= 0.0 and np.isfinite(g_value)


def gem_block(features):
    """A (1, n, flat_dim) block of flat rows whose GEM columns are ``features``."""
    rows = np.full((1, len(features), STATE_DIM + HIDDEN_SIZE), -1.0, dtype=np.float32)
    rows[0, :, STATE_DIM:] = features
    return rows


def assert_buffer_is(gem, reference):
    """The buffer holds the deque's items, oldest first, in an array of its own."""
    assert gem.buffer.dtype == np.float32 and gem.buffer.base is None
    assert np.array_equal(gem.buffer, np.stack(reference))


def test_win_buffer_fifo(monkeypatch):
    monkeypatch.setattr(gem_module, "WIN_BUFFER_CAPACITY", 5)
    gem = make_gem()
    rows = session_rows(10)
    gem.collect(rows[None, :0])
    assert gem.buffer.shape == (0, HIDDEN_SIZE)
    gem.collect(rows[None])
    # The last five hidden vectors survive, oldest first.
    assert_buffer_is(gem, deque(rows[5:, -HIDDEN_SIZE:]))


def test_win_buffer_matches_deque_past_capacity(monkeypatch):
    capacity = 7
    monkeypatch.setattr(gem_module, "WIN_BUFFER_CAPACITY", capacity)
    gem, reference = make_gem(), deque(maxlen=capacity)
    rng = np.random.default_rng(3)
    # One-row blocks, then longer ones: one that pushes out older rows, one
    # longer than the capacity, and an empty one.
    sizes = [1] * (3 * capacity + 1) + [5, 2 * capacity + 3, 4, 0, 3]
    for size in sizes:
        features = rng.normal(size=(size, HIDDEN_SIZE)).astype(np.float32)
        gem.collect(gem_block(features))
        reference.extend(features)
        assert_buffer_is(gem, reference)


def test_collect_appends_all_steps():
    gem = make_gem()
    rows = session_rows(10)
    gem.collect(rows[None])
    # Only the GEM columns, oldest step first.
    assert np.array_equal(gem.buffer, rows[:, -HIDDEN_SIZE:])


def test_collect_of_a_block_equals_per_session_extends(monkeypatch):
    # Two winning sessions of 5 steps push a capacity-7 buffer past its
    # capacity on top of 4 earlier vectors.
    monkeypatch.setattr(gem_module, "WIN_BUFFER_CAPACITY", 7)
    earlier = np.random.default_rng(5).normal(size=(4, HIDDEN_SIZE)).astype(np.float32)
    winners = np.stack([session_rows(5, fill=0.5), session_rows(5, fill=2.0)])
    gem, per_session, reference = make_gem(), make_gem(), deque(earlier, maxlen=7)
    gem.collect(gem_block(earlier))
    per_session.collect(gem_block(earlier))
    gem.collect(winners)
    for session in winners:
        per_session.collect(session[None])
        reference.extend(session[:, -HIDDEN_SIZE:])
    assert_buffer_is(gem, reference)
    assert_buffer_is(per_session, reference)


def test_update_draws_its_real_batch_from_the_buffer(monkeypatch):
    """Draw i of ``update``'s winning batch is the i-th oldest buffered row."""
    capacity = 7
    monkeypatch.setattr(gem_module, "WIN_BUFFER_CAPACITY", capacity)
    gem, reference = make_gem(12), deque(maxlen=capacity)
    real_batches = []
    disc_gradients = gem.disc_gradients

    def spy(real, fake):
        real_batches.append(real.copy())
        return disc_gradients(real, fake)

    monkeypatch.setattr(gem, "disc_gradients", spy)
    rng = np.random.default_rng(13)
    inputs = rng.normal(size=(9, STATE_DIM + HIDDEN_SIZE)).astype(np.float32)
    # A partly filled buffer, a full one, and one pushed past its capacity.
    for seed, size in enumerate([3, 4, 5, 2 * capacity + 1]):
        features = rng.normal(size=(size, HIDDEN_SIZE)).astype(np.float32)
        gem.collect(gem_block(features))
        reference.extend(features)
        assert not gem.update(inputs, np.random.default_rng(seed)).skipped
        expected = np.stack(reference)[np.random.default_rng(seed).integers(
            len(reference), size=GEM_BATCH)]
        assert np.array_equal(real_batches[-1], expected)
    assert len(real_batches) == 4


def test_update_skips_on_empty_buffer():
    gem = make_gem(5)
    inputs = np.zeros((4, STATE_DIM + HIDDEN_SIZE), dtype=np.float32)
    before = [p.copy() for p in gem.gen.params() + gem.disc.params()]
    report = gem.update(inputs, np.random.default_rng(0))
    assert report.skipped
    for old, new in zip(before, gem.gen.params() + gem.disc.params()):
        assert np.array_equal(old, new)


def test_update_applies_and_moments_advance():
    gem = make_gem(6)
    rng_data = np.random.default_rng(7)
    gem.collect(session_rows(12, fill=0.3)[None])
    inputs = rng_data.normal(size=(30, STATE_DIM + HIDDEN_SIZE)).astype(np.float32)

    p0 = [p.copy() for p in gem.gen.params() + gem.disc.params()]
    report1 = gem.update(inputs, np.random.default_rng(42))
    assert not report1.skipped and np.isfinite(report1.d_loss) and np.isfinite(report1.g_loss)
    p1 = [p.copy() for p in gem.gen.params() + gem.disc.params()]
    gem.update(inputs, np.random.default_rng(42))  # identical inputs and draws
    p2 = [p.copy() for p in gem.gen.params() + gem.disc.params()]

    delta1 = [b - a for a, b in zip(p0, p1)]
    delta2 = [b - a for a, b in zip(p1, p2)]
    assert any(np.any(a != b) for a, b in zip(delta1, delta2))
    with pytest.raises(ValueError):
        gem.update(np.zeros((3, 5), dtype=np.float32), np.random.default_rng(0))


def test_disc_gradients_match_finite_differences():
    gem = make_gem(8)
    rng = np.random.default_rng(9)
    real = rng.normal(0.4, 0.2, size=(8, HIDDEN_SIZE)).astype(np.float32)
    fake = rng.normal(-0.2, 0.3, size=(8, HIDDEN_SIZE)).astype(np.float32)
    loss, grads = gem.disc_gradients(real, fake)
    assert np.isfinite(loss)

    twin = to_float64(gem.disc)
    stacked64 = np.concatenate([real, fake]).astype(np.float64)

    def loss64():
        p, _ = twin.forward(stacked64)
        p_r, p_f = p[:len(real)], p[len(real):]
        return float(0.5 * np.mean((p_r - 1.0) ** 2) + 0.5 * np.mean(p_f ** 2))

    errors = []
    for param, grad in zip(twin.params(), grads):
        errors += gradient_errors(loss64, param, grad, rng=rng, max_coords=30)
    assert max(errors) < 1e-2


def test_gen_gradients_match_finite_differences():
    gem = make_gem(10)
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=(8, STATE_DIM + HIDDEN_SIZE)).astype(np.float32)
    loss, grads = gem.gen_gradients(inputs)
    assert np.isfinite(loss)

    gen_twin = to_float64(gem.gen)
    disc_twin = to_float64(gem.disc)
    inputs64 = inputs.astype(np.float64)

    def loss64():
        fake, _ = gen_twin.forward(inputs64)
        p, _ = disc_twin.forward(fake)
        return float(0.5 * np.mean((p - 1.0) ** 2))

    errors = []
    for param, grad in zip(gen_twin.params(), grads):
        errors += gradient_errors(loss64, param, grad, rng=rng, max_coords=30)
    assert max(errors) < 1e-2
