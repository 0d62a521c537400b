"""Reference actor-critic gradient: each head backpropagated on its own
through ``Sequential.backward`` to a full (batch, trunk.dim) feature gradient,
then through a per-head trunk backward that runs one matmul per branch over
transposed copies of its gradient and window patches. ``Agent.gradients``
must give the same losses (``==``) and the same gradients up to float32
rounding.
"""

import numpy as np

from abr_arena.agent import CONV_FILTERS, CONV_KERNEL, td_targets
from abr_arena.gem import HIDDEN_SIZE
from abr_arena.neural import DTYPE, softmax


def trunk_backward(trunk, config, cache, d_features):
    """Trunk parameter gradients for one head's full feature gradient."""
    rows, features = cache
    # Back to the filter-major columns this reference slices.
    filter_major = np.argsort(trunk.order)
    features, d_features = features[:, filter_major], d_features[:, filter_major]
    k, n = config.history_len, config.num_levels
    segments = {"throughput": (0, k), "download": (k, k), "bitrate": (2 * k, k),
                "sizes": (3 * k + 2, n), "hidden": (3 * k + 2 + n, HIDDEN_SIZE)}
    grads, offset = [], 0
    for name, conv in trunk.convs.items():
        start, length = segments[name]
        width = length - CONV_KERNEL + 1
        span = slice(offset, offset + CONV_FILTERS * width)
        offset = span.stop
        d_pre = d_features[:, span] * (features[:, span] > 0)
        # (filters, batch * width) against (batch * width, kernel) patches.
        d_pre = d_pre.reshape(-1, CONV_FILTERS, width).transpose(1, 0, 2)
        d_pre = d_pre.reshape(CONV_FILTERS, -1)
        taps = start + np.arange(width)[:, None] + np.arange(CONV_KERNEL)
        patches = rows[:, taps].reshape(-1, CONV_KERNEL)
        grads += [(d_pre @ patches).reshape(conv.weight.shape), d_pre.sum(axis=1)]
    d_pre = d_features[:, -CONV_FILTERS:] * (features[:, -CONV_FILTERS:] > 0)
    return grads + [rows[:, 3 * k:3 * k + 2].T @ d_pre, d_pre.sum(axis=0)]


def reference_gradients(agent, batch):
    """(report, policy_grads, value_grads) as ``Agent.gradients`` defines
    them, computed head by head."""
    cfg = agent.config
    features, trunk_cache = agent.trunk.forward(batch.inputs)
    batch_size = features.shape[0]

    values, value_cache = agent.value_head.forward(features)
    values = values[:, 0].astype(np.float64)
    q_targets = td_targets(batch.rewards, values.reshape(batch.rewards.shape),
                           cfg.discount, cfg.td_steps).ravel()
    adv = (q_targets - values).astype(DTYPE)
    value_loss = float(np.mean(adv.astype(np.float64) ** 2))

    logits, policy_cache = agent.policy_head.forward(features)
    probs = softmax(logits)
    log_probs = np.log(np.maximum(probs, 1e-12))
    entropy = -(probs * log_probs).sum(axis=1)
    chosen = log_probs[np.arange(batch_size), batch.actions]
    policy_loss = float(-np.mean(adv * chosen + cfg.entropy_weight * entropy))

    report = {"policy_loss": policy_loss, "value_loss": value_loss,
              "entropy": float(entropy.mean())}
    if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
        return report, None, None

    d_values = (-2.0 * adv / batch_size)[:, None].astype(DTYPE)
    d_feat_v, value_grads = agent.value_head.backward(value_cache, d_values)
    trunk_grads_v = trunk_backward(agent.trunk, cfg, trunk_cache, d_feat_v)

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch_size), batch.actions] = 1.0
    d_logits = (adv[:, None] * (probs - one_hot)
                + cfg.entropy_weight * probs * (log_probs + entropy[:, None]))
    d_logits = (d_logits / batch_size).astype(DTYPE)
    d_feat_p, policy_grads = agent.policy_head.backward(policy_cache, d_logits)
    trunk_grads_p = trunk_backward(agent.trunk, cfg, trunk_cache, d_feat_p)

    return report, trunk_grads_p + policy_grads, trunk_grads_v + value_grads
