from collections import Counter

import numpy as np
import pytest
from reference_session import ReferenceSession

from abr_arena.baselines import POLICY_NAMES, make_policy
from abr_arena.elo import (
    INITIAL_RATING, anchor_baselines, expected_score, rate_agent, update,
)
from abr_arena.rule import MatchOutcome, judge, match_scores
from abr_arena.simulator import SessionConfig
from abr_arena.workload import SynthManifestConfig, SynthTraceConfig, synth_manifest, synth_trace


def test_expected_score_values():
    assert expected_score(1000, 1000) == 0.5
    assert expected_score(1200, 1000) == pytest.approx(0.75975, abs=1e-5)
    for ra, rb in [(900, 1100), (1250, 980), (1000, 1000)]:
        assert expected_score(ra, rb) + expected_score(rb, ra) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_score(float("inf"), 1000)


def test_expected_score_monotone():
    base = expected_score(1000, 1000)
    assert expected_score(1100, 1000) > base > expected_score(900, 1000)
    assert expected_score(1000, 1100) < base < expected_score(1000, 900)


def test_update_examples():
    assert update(1000, 1000, 1.0, 10) == (1005.0, 995.0)
    ra, rb = update(1200, 1000, 0.0, 10)
    assert ra == pytest.approx(1192.40, abs=0.01)
    assert rb == pytest.approx(1007.60, abs=0.01)
    assert update(1000, 1000, 0.5, 10) == (1000.0, 1000.0)
    with pytest.raises(ValueError):
        update(1000, 1000, 0.7, 10)


def test_update_conserves_sum():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        ra = rng.uniform(600, 1600)
        rb = rng.uniform(600, 1600)
        score = float(rng.choice([0.0, 0.5, 1.0]))
        na, nb = update(ra, rb, score, 10)
        assert abs((na + nb) - (ra + rb)) < 1e-9


def _constant_policy(level):
    return lambda obs: level


def test_anchor_identical_policies_stay_even():
    manifest = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(3)]
    ratings = anchor_baselines(
        {"a": _constant_policy(1), "b": _constant_policy(1)},
        traces, manifest, SessionConfig())
    assert ratings == {"a": INITIAL_RATING, "b": INITIAL_RATING}


def test_anchor_rating_sum_conserved():
    manifest = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    policies = {f"level{i}": _constant_policy(i) for i in range(3)}
    ratings = anchor_baselines(policies, traces, manifest, SessionConfig())
    assert sum(ratings.values()) == pytest.approx(INITIAL_RATING * 3, abs=1e-6)


def test_anchor_plays_each_policy_once_per_trace():
    """One lockstep run of every (policy, trace) session gives the ratings of
    judging sessions played on their own, pair by pair, trace by trace."""
    manifest = synth_manifest(SynthManifestConfig(num_chunks=6, vbr_jitter=0.2), seed=1)
    traces = [synth_trace(SynthTraceConfig(duration_s=40.0), seed=s) for s in range(4)]
    cfg = SessionConfig(buffer_capacity_s=12.0)
    decisions = Counter()

    def counted(name):
        policy = make_policy(name, manifest, cfg)

        def decide(obs):
            decisions[name] += 1
            return policy(obs)
        return decide

    ratings = anchor_baselines({name: counted(name) for name in POLICY_NAMES}, traces,
                               manifest, cfg)
    assert decisions == {name: len(traces) * manifest.num_chunks for name in POLICY_NAMES}

    def played_alone(name, trace):
        policy, session = make_policy(name, manifest, cfg), ReferenceSession(manifest, trace, cfg)
        while not session.done:
            session.step(int(policy(session.observe())))
        return session.metrics()

    expected = {name: INITIAL_RATING for name in POLICY_NAMES}
    for i, a in enumerate(POLICY_NAMES):
        for b in POLICY_NAMES[i + 1:]:
            for trace in traces:
                score_a, _ = match_scores(judge(played_alone(a, trace), played_alone(b, trace)))
                expected[a], expected[b] = update(expected[a], expected[b], score_a)
    assert ratings == expected


def test_anchor_validates_inputs():
    manifest = synth_manifest(SynthManifestConfig(num_chunks=2), seed=0)
    trace = synth_trace(SynthTraceConfig(duration_s=30.0), seed=0)
    with pytest.raises(ValueError):
        anchor_baselines({"only": _constant_policy(0)}, [trace], manifest)
    with pytest.raises(ValueError):
        anchor_baselines({"a": _constant_policy(0), "b": _constant_policy(1)}, [], manifest)


def test_rate_agent():
    baselines = {"anchor": 1000.0}
    rating = rate_agent(1000.0, baselines, {"anchor": [MatchOutcome.AGENT0]}, 10)
    assert rating == 1005.0
    assert baselines["anchor"] == 1000.0  # anchors are frozen

    # Draw-everything pulls the rating toward the opponents' level.
    far = rate_agent(1200.0, {"weak": 1000.0}, {"weak": [MatchOutcome.DRAW] * 5}, 10)
    assert far < 1200.0
    low = rate_agent(800.0, {"weak": 1000.0}, {"weak": [MatchOutcome.DRAW] * 5}, 10)
    assert low > 800.0

    assert rate_agent(1234.0, baselines, {"anchor": []}, 10) == 1234.0
    with pytest.raises(KeyError):
        rate_agent(1000.0, baselines, {"ghost": [MatchOutcome.DRAW]}, 10)
