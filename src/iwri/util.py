"""Small helpers shared across modules.

Norms are computed with numpy's pairwise ``sum`` rather than BLAS dot
products so that results do not depend on the BLAS thread count.
"""

import ctypes

import numpy as np

# glibc's malloc_trim(pad); other C libraries have no such call
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def squared_norm(x):
    """sum |x|^2 over every entry of ``x``."""
    return float(np.sum(np.abs(x) ** 2))


def stacked_norm(arrays):
    """Frobenius norm of a collection of arrays stacked as one vector."""
    return float(np.sqrt(sum(map(squared_norm, arrays))))


def release_free_memory():
    """Return the C heap's free pages to the system (glibc's
    ``malloc_trim(0)``); does nothing where the C library lacks the call.
    The pages fault back in when next used, so call it between large
    phases of work, not inside them."""
    if _malloc_trim is not None:
        _malloc_trim(0)
