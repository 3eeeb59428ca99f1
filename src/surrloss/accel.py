"""Greedy feedback-arc-set peel, kept only for the benchmark's stage map.

`fas_peel` has no library caller: the ranking decoder is the exact sort of
s = A^T R (`decoders.decode_ranking_fas`).  The peel and the constant
`USE_NUMBA = False` stay only because the benchmark names both from outside
the package: `bench/stages.py` traces `accel.fas_peel` and `bench/machine.py`
records `accel.USE_NUMBA`.  The module goes once the benchmark drops them.
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
