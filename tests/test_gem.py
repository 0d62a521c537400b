from collections import deque

import numpy as np
import pytest
from gradcheck import gradient_errors, to_float64

from abr_arena.gem import HIDDEN_SIZE, GemModule, WinBuffer

STATE_DIM = 20


def make_gem(seed=0, **kwargs):
    return GemModule(STATE_DIM, rng=np.random.default_rng(seed), batch_size=16, **kwargs)


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
    h1 = gem.hidden_for(prev_rows)
    assert h1.shape == (5, HIDDEN_SIZE)
    assert np.all(np.isfinite(h1))
    assert np.array_equal(gem.hidden_for(prev_rows), h1)
    # Rows are independent in inference mode: one row alone gives its own feature.
    np.testing.assert_allclose(gem.hidden_for(prev_rows[2:3])[0], h1[2], rtol=1e-6, atol=1e-7)
    with pytest.raises(ValueError):
        gem.hidden_for(prev_rows[:, :-4])


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

    def forward(self, x, training=False):
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
    fake, _ = gem.gen.forward(inputs, training=True)
    d_value, _ = gem.disc_gradients(win, fake)
    g_value, _ = gem.gen_gradients(inputs)
    assert d_value >= 0.0 and np.isfinite(d_value)
    assert g_value >= 0.0 and np.isfinite(g_value)


def test_win_buffer_fifo():
    gem = make_gem(buffer_capacity=5)
    buf = gem.buffer
    rows = session_rows(10)
    gem.collect(rows[None, :0])
    assert len(buf) == 0
    gem.collect(rows[None])
    assert len(buf) == 5  # last five hidden vectors survive
    kept = buf.sample(np.random.default_rng(0), 64)
    assert kept.min() >= 6.0
    with pytest.raises(ValueError):
        WinBuffer(0)
    with pytest.raises(ValueError):
        WinBuffer(4).sample(np.random.default_rng(0), 2)
    with pytest.raises(ValueError):
        WinBuffer(4).extend(np.zeros(HIDDEN_SIZE))


def test_win_buffer_ring_matches_deque_after_wrapping():
    capacity = 7
    buf, reference = WinBuffer(capacity), deque(maxlen=capacity)
    rng = np.random.default_rng(3)
    # One-row blocks, then longer ones: one that wraps past the end of the
    # ring, one longer than the capacity, and an empty one.
    sizes = [1] * (3 * capacity + 1) + [5, 2 * capacity + 3, 4, 0, 3]
    for count, size in enumerate(sizes, start=1):
        block = rng.normal(size=(size, HIDDEN_SIZE)).astype(np.float32)
        buf.extend(block)
        reference.extend(block)
        assert len(buf) == len(reference)
        # Index i is the i-th oldest kept item, so one seed draws the same samples.
        expected = np.stack(list(reference))[np.random.default_rng(count).integers(
            len(reference), size=11)]
        assert np.array_equal(buf.sample(np.random.default_rng(count), 11), expected)


def test_collect_appends_all_steps():
    gem = make_gem()
    rows = session_rows(10)
    gem.collect(rows[None])
    assert len(gem.buffer) == 10
    # Only the GEM columns, oldest step first.
    assert np.array_equal(gem.buffer._items[:10], rows[:, -HIDDEN_SIZE:])


def test_collect_of_a_block_equals_per_session_extends():
    # Two winning sessions of 5 steps fill a capacity-7 buffer past its end
    # on top of 4 earlier vectors.
    earlier = np.random.default_rng(5).normal(size=(4, HIDDEN_SIZE)).astype(np.float32)
    winners = np.stack([session_rows(5, fill=0.5), session_rows(5, fill=2.0)])
    gem, reference = make_gem(buffer_capacity=7), WinBuffer(7)
    gem.buffer.extend(earlier)
    reference.extend(earlier)
    gem.collect(winners)
    for session in winners:
        reference.extend(session[:, -HIDDEN_SIZE:])
    assert len(gem.buffer) == len(reference) == 7
    assert gem.buffer._next == reference._next
    assert np.array_equal(gem.buffer._items, reference._items)


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
        p, _ = twin.forward(stacked64, training=True)
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
        fake, _ = gen_twin.forward(inputs64, training=True)
        p, _ = disc_twin.forward(fake, training=True)
        return float(0.5 * np.mean((p - 1.0) ** 2))

    errors = []
    for param, grad in zip(gen_twin.params(), grads):
        errors += gradient_errors(loss64, param, grad, rng=rng, max_coords=30)
    assert max(errors) < 1e-2
