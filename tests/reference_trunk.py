"""Reference trunk forward: each branch's windows gathered from the rows
(``rows[:, trunk._taps]``) and multiplied by its kernel into that branch's
(positions, filters) slab, one small product per row and position.
``FeatureTrunk.forward`` must give the same features bit for bit.
"""

import numpy as np

from abr_arena.agent import CONV_FILTERS


def gathered_forward(trunk, rows):
    """Features of float32 ``rows`` (batch, flat_dim) against the trunk's
    current parameters."""
    windows = rows[:, trunk._taps]
    features = np.empty((len(rows), trunk.dim), dtype=rows.dtype)
    slabs = features.reshape(len(rows), -1, CONV_FILTERS)
    for conv, lo, hi in trunk._branches:
        np.matmul(windows[:, lo:hi], conv.weight[:, 0].T, out=slabs[:, lo:hi])
    np.matmul(rows[:, trunk._scalar_cols], trunk.scalars.weight, out=slabs[:, -1])
    widths = [hi - lo for _, lo, hi in trunk._branches] + [1]
    biases = np.array(trunk.params()[1::2])  # each layer's bias
    slabs += biases[np.repeat(np.arange(len(widths)), widths)]
    return np.maximum(features, 0, out=features)
