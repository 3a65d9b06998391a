"""The one argument every oracle takes, and the outer state, built from blocks for the tests."""

import numpy as np

from fedtri.core import PrimalState


def stack_rows(dims, x1, x2, x3):
    """Blocks as the (N, D) rows ``[x1 | x2 | x3]``; a shared (d_i,) block goes to every row."""
    return np.concatenate([np.broadcast_to(b, (dims.N, di))
                           for b, di in zip((x1, x2, x3), dims.sizes)], axis=1)


def state_of(dims, z1=0.0, z2=0.0, z3=0.0, x1=0.0, x2=0.0, x3=0.0):
    """The ``PrimalState`` Z = [z1 | z2 | z3], X's rows [x1 | x2 | x3]; a number fills a block."""
    Z = np.concatenate([np.broadcast_to(b, (di,)) for b, di in zip((z1, z2, z3), dims.sizes)])
    return PrimalState(dims, stack_rows(dims, x1, x2, x3).astype(float), Z.astype(float))
