"""Property tests of the double-precision spectrum against invariants
read from the bidiagonal factors alone."""

import numpy as np
from hypothesis import given, settings, strategies as st

from multihess import GeneratorSequence, eigenvalues, interlacing_check


def _dense_factors(g, N):
    """Dense L_1 .. L_p and U of the order-N truncation, read from the
    alphas: L_k[i+1, i] = alpha_{k+1+i(p+1)}, U[i, i] = alpha_{1+i(p+1)}."""
    p, n, step = g.p, N + 1, g.p + 1
    a = np.concatenate(([np.nan], g.alphas(g.required_alphas(N))))
    lowers = [np.eye(n) + np.diag(a[k + 1:k + 1 + step * N:step], -1)
              for k in range(1, p + 1)]
    return lowers, np.diag(a[1:2 + step * N:step]) + np.eye(n, k=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 3), seed=st.integers(0, 2**31), N=st.integers(1, 60))
def test_double_spectrum_invariants(p, seed, N):
    g = GeneratorSequence.uniform(p, 0.5, 2.0, seed=seed)
    lowers, U = _dense_factors(g, N)
    T = U
    for L in reversed(lowers):
        T = L @ T
    lams = eigenvalues(g, N)
    assert lams[-1] > 0.0 and np.all(np.diff(lams) < 0.0)
    assert abs(lams.sum() - np.trace(T)) <= 1e-12 * lams.sum()
    # det T = prod U[i, i], since every L_k is unit triangular; a missing
    # or duplicated root moves the sum of logs by a whole log gap
    logs = np.log(lams)
    tol = 0.1 * np.min(logs[:-1] - logs[1:])
    assert abs(logs.sum() - np.log(np.diag(U)).sum()) <= tol
    assert interlacing_check(g, N)["strict"]
