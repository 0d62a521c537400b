"""Reference inference forward: a network run with each batch norm at its
running statistics instead of the batch's, the normalization that
``GemModule.inference`` folds into the dense layer before it.
"""

import numpy as np

from abr_arena.neural import BN_EPS, BatchNorm


def running_forward(net, x):
    """Output of the ``Sequential`` ``net`` on ``x``; no layer state moves."""
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            inv_std = 1.0 / np.sqrt(layer.running_var + BN_EPS)
            x = layer.gamma * ((x - layer.running_mean) * inv_std) + layer.beta
        else:
            x, _ = layer.forward(x)
    return x
