"""Greedy feedback-arc-set peel for the ranking decoder.

Every other numeric kernel lives in the one module that calls it, with a
single NumPy implementation.  `fas_peel` would belong in `decoders` too; it
stays here, together with the constant `USE_NUMBA = False`, because the
benchmark names both from outside the package: `bench/stages.py` traces
`accel.fas_peel` and `bench/machine.py` records `accel.USE_NUMBA`.  Both can
move once the benchmark drops those two names.
"""

import numpy as np

USE_NUMBA = False


def fas_peel(net):
    """Peeling order on a tournament with net weights net[i, j] = W[i, j] - W[j, i].

    W[i, j] is the cost of ranking i above j.  Each step extracts the
    remaining vertex with the largest (incoming - outgoing) net cost, i.e.
    the one cheapest to rank next; ties go to the lowest index.
    """
    m = net.shape[0]
    order = np.empty(m, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    for pos in range(m):
        scores = np.where(alive, -(net * alive[None, :]).sum(axis=1) + np.diag(net), -np.inf)
        best = int(np.argmax(scores))
        order[pos] = best
        alive[best] = False
    return order
