import numpy as np
import pytest

from abr_arena.rule import judge, win_rate
from abr_arena.simulator import SessionMetrics


def m(b, r, s):
    return SessionMetrics(total_bitrate_kbps=b, total_rebuffer_s=r, total_change_kbps=s)


def test_judge_worked_examples():
    # Dominance on (rebuffer, bitrate).
    assert judge(m(2000, 0, 0), m(1500, 2, 0)) == 1.0
    # Mixed axes fall through to the rebuffer-per-bitrate ratio.
    assert judge(m(2000, 4, 0), m(1000, 1, 0)) == 0.0
    # Equal on both axes and equal ratios: smaller total change wins.
    assert judge(m(2000, 1, 500), m(2000, 1, 100)) == 0.0
    # Total symmetry is a draw.
    assert judge(m(2000, 1, 100), m(2000, 1, 100)) == 0.5


def test_judge_rejects_bad_metrics():
    with pytest.raises(ValueError):
        judge(m(0.0, 0, 0), m(1000, 0, 0))
    with pytest.raises(ValueError):
        judge(m(1000, -1, 0), m(1000, 0, 0))
    with pytest.raises(ValueError):
        judge(m(1000, float("nan"), 0), m(1000, 0, 0))


def _random_metrics(rng, size):
    # Mix a continuous regime with a coarse grid so equality branches get hit.
    b = np.where(rng.random(size) < 0.5, rng.uniform(1, 1e6, size),
                 rng.integers(1, 6, size) * 1000.0)
    r = np.where(rng.random(size) < 0.5, rng.uniform(0, 1e4, size),
                 rng.integers(0, 4, size) * 1.0)
    s = np.where(rng.random(size) < 0.5, rng.uniform(0, 1e5, size),
                 rng.integers(0, 4, size) * 100.0)
    return b, r, s


def test_judge_antisymmetry_bulk():
    rng = np.random.default_rng(2024)
    size = 100_000
    b0, r0, s0 = _random_metrics(rng, size)
    b1, r1, s1 = _random_metrics(rng, size)
    failures = 0
    for i in range(size):
        m0 = m(b0[i], r0[i], s0[i])
        m1 = m(b1[i], r1[i], s1[i])
        if judge(m1, m0) != 1.0 - judge(m0, m1):
            failures += 1
    assert failures == 0


def test_judge_dominance_property():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        b1, r1, s1 = rng.uniform(1, 1e5), rng.uniform(0, 100), rng.uniform(0, 1e4)
        better = m(b1 + rng.uniform(0, 100) + 1e-6, max(0.0, r1 - rng.uniform(0, r1)), s1)
        assert judge(better, m(b1, r1, s1)) == 1.0


def test_judge_scale_covariance():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m0 = m(rng.uniform(1, 1e5), rng.uniform(0, 50), rng.uniform(0, 1e4))
        m1 = m(rng.uniform(1, 1e5), rng.uniform(0, 50), rng.uniform(0, 1e4))
        base = judge(m0, m1)
        for factor in (0.5, 2.0, 16.0):  # powers of two keep ratios exact
            scaled0 = m(m0.total_bitrate_kbps * factor, m0.total_rebuffer_s,
                        m0.total_change_kbps)
            scaled1 = m(m1.total_bitrate_kbps * factor, m1.total_rebuffer_s,
                        m1.total_change_kbps)
            assert judge(scaled0, scaled1) == base


def test_win_rate():
    assert win_rate([1.0, 1.0, 0.0, 0.5]) == (0.625, 0.375)
    assert win_rate([0.5] * 3) == (0.5, 0.5)
    assert win_rate([0.0] * 4) == (0.0, 1.0)
    with pytest.raises(ValueError):
        win_rate([])


def test_win_rates_sum_to_one_exactly():
    rng = np.random.default_rng(1)
    choices = [1.0, 0.0, 0.5]
    for _ in range(200):
        scores = [choices[i] for i in rng.integers(0, 3, size=rng.integers(1, 30))]
        w0, w1 = win_rate(scores)
        assert w0 + w1 == 1.0

