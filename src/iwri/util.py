"""Small numeric helpers shared across modules.

Norms are computed with numpy's pairwise ``sum`` rather than BLAS dot
products so that results do not depend on the BLAS thread count.
"""

import numpy as np


def stacked_norm(arrays):
    """Frobenius norm of a collection of arrays stacked as one vector."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.abs(np.asarray(a)) ** 2))
    return float(np.sqrt(total))


def axis_minor_ordering(n_rows, n_cols):
    """Permutation turning a row-major (column-fastest) grid vector into
    one where the row index varies fastest.

    Useful to shrink the bandwidth of grid operators when the grid has
    fewer rows than columns: ``perm[new] = old``.
    """
    new = np.arange(n_rows * n_cols)
    ix, iz = np.divmod(new, n_rows)
    return iz * n_cols + ix
