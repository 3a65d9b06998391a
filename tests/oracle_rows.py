"""The one argument every oracle takes, built from blocks for the tests."""

import numpy as np


def stack_rows(dims, x1, x2, x3):
    """Blocks as the (N, D) rows ``[x1 | x2 | x3]``; a shared (d_i,) block goes to every row."""
    return np.concatenate([np.broadcast_to(b, (dims.N, di))
                           for b, di in zip((x1, x2, x3), dims.sizes)], axis=1)
