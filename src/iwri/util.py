"""Small numeric helpers shared across modules.

Norms are computed with numpy's pairwise ``sum`` rather than BLAS dot
products so that results do not depend on the BLAS thread count.
"""

import numpy as np


def squared_norm(x):
    """sum |x|^2 over every entry of ``x``."""
    return float(np.sum(np.abs(x) ** 2))


def stacked_norm(arrays):
    """Frobenius norm of a collection of arrays stacked as one vector."""
    return float(np.sqrt(sum(map(squared_norm, arrays))))


def axis_minor_ordering(n_rows, n_cols):
    """Permutation turning a row-major (column-fastest) grid vector into
    one where the row index varies fastest.

    Useful to shrink the bandwidth of grid operators when the grid has
    fewer rows than columns: ``perm[new] = old``.
    """
    new = np.arange(n_rows * n_cols)
    ix, iz = np.divmod(new, n_rows)
    return iz * n_cols + ix
