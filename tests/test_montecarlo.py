"""Deterministic chain simulation: reproducibility, chunk invariance and
statistical agreement with the exact distribution."""

import numpy as np
import pytest

from multihess import (GeneratorSequence, InvalidInputError, finite_chain,
                       simulate_chain)
import multihess.montecarlo as montecarlo
from multihess.montecarlo import _next_state_table, _table_step
from multihess.rng import XorShift64Star, splitmix64, uniform_stream


def test_splitmix_known_values_and_determinism():
    a = splitmix64(12345, 4)
    b = splitmix64(12345, 4)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint64
    # offset slicing matches a longer stream
    full = splitmix64(9, 10)
    tail = splitmix64(9, 6, offset=4)
    assert np.array_equal(full[4:], tail)


def test_uniform_stream_range_and_determinism():
    u = uniform_stream(7, 1000, 0.5, 2.0)
    assert np.array_equal(u, uniform_stream(7, 1000, 0.5, 2.0))
    assert u.min() >= 0.5 and u.max() < 2.0


def test_xorshift_uniformity_rough():
    gen = XorShift64Star(splitmix64(1, 1)[0], streams=200)
    u = np.concatenate([gen.next_float() for _ in range(100)])
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.var(u) - 1.0 / 12.0) < 0.005


def _small_chain():
    g = GeneratorSequence.uniform(2, 0.5, 2.0, seed=70)
    return finite_chain(g, 6).P


def test_simulation_byte_identical_rerun():
    P = _small_chain()
    r1 = simulate_chain(P, 2, 10, 5000, seed=99)
    r2 = simulate_chain(P, 2, 10, 5000, seed=99)
    assert np.array_equal(r1.counts, r2.counts)
    assert r1.counts.sum() == 5000


def test_simulation_chunk_invariance(monkeypatch):
    P = _small_chain()
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    r1 = simulate_chain(P, 2, 10, 5000, seed=99)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1 << 12)
    r2 = simulate_chain(P, 2, 10, 5000, seed=99)
    assert np.array_equal(r1.counts, r2.counts)


def test_simulation_statistics():
    P = _small_chain()
    r = simulate_chain(P, 0, 12, 200000, seed=5)
    assert r.max_abs_z() < 4.5
    assert abs(r.frequencies.sum() - 1.0) < 1e-12
    assert np.allclose(r.reference.sum(), 1.0, rtol=1e-12)


def test_simulation_zero_steps():
    P = _small_chain()
    r = simulate_chain(P, 3, 0, 100, seed=1)
    assert r.counts[3] == 100 and r.counts.sum() == 100


def test_simulation_rejects_nan():
    # NaN fails no row-sum or sign comparison, so it needs its own check
    P = np.array([[0.5, 0.5, 0.0], [0.2, np.nan, 0.3], [0.0, 0.4, 0.6]])
    with pytest.raises(InvalidInputError):
        simulate_chain(P, 0, 5, 1000, seed=1)


def test_simulation_validation():
    P = _small_chain()
    with pytest.raises(InvalidInputError):
        simulate_chain(P, -1, 5, 10, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_chain(P, 0, -1, 10, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_chain(P, 0, 5, 0, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_chain(P * 1.01, 0, 5, 10, seed=0)
    with pytest.raises(InvalidInputError):
        simulate_chain(P[:3], 0, 5, 10, seed=0)


def _dense_step(P, where, u):
    """The step over whole rows: the count of row-CDF entries <= u."""
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = 1.0
    return (cdf[where] <= u[:, None]).sum(axis=1)


def _dense_counts(P, start, steps, trials, seed, chunk):
    """simulate_chain's counts from float draws and _dense_step."""
    counts = np.zeros(P.shape[0], dtype=np.int64)
    for base in range(0, trials, chunk):
        m = min(chunk, trials - base)
        rng = XorShift64Star(seed, m, stream_offset=base)
        w = np.full(m, start, dtype=np.intp)
        for _ in range(steps):
            w = _dense_step(P, w, rng.next_float())
        counts += np.bincount(w, minlength=P.shape[0])
    return counts


def _draws(P, state):
    """Integer draws k (u = k * 2**-53) at and next to every CDF value of
    the state's row, its float neighbours and every bucket edge, the ends
    of [0, 1) and random draws."""
    c = np.cumsum(P[state])
    c = np.concatenate((c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)))
    c = np.ldexp(c[c < 1.0], 53)
    k = np.concatenate((np.floor(c), np.ceil(c))).astype(np.int64)
    k = np.concatenate((k, np.arange(257, dtype=np.int64) << 45,
                        [0, 1 << 52], np.random.default_rng(state).integers(
                            0, 1 << 53, 50)))
    k = np.unique(np.concatenate((k - 1, k, k + 1)))
    return k[(k >= 0) & (k < 1 << 53)]


def _rows(A, total=1.0):
    A = np.asarray(A, dtype=float)
    return A / A.sum(axis=1, keepdims=True) * total


def _window_cases():
    g2 = GeneratorSequence.uniform(2, 0.5, 2.0, seed=71)
    g3 = GeneratorSequence.uniform(3, 0.5, 2.0, seed=72)
    yield "type_ii", finite_chain(g3, 12, kind="type_ii").P
    yield "type_i", finite_chain(g2, 10, kind="type_i").P
    # bands of width 4 that run into the last column from row 3 on
    yield "last_column", _rows(np.triu(np.tril(np.ones((7, 7)), 3)))
    # zeros inside the band, at its ends and in its middle; rows short
    # of 1 by 5e-13 give CDF values below 1 past the band, rows over it
    # CDF values above 1 before the last column
    A = np.triu(np.tril(np.arange(1.0, 50.0).reshape(7, 7), 2), -2)
    A[1, 2] = A[3, 1] = A[3, 3] = A[4, 6] = A[6, 4] = 0.0
    yield "inner_zeros", _rows(A, 1.0 - 5e-13)
    yield "overshoot", _rows(A, 1.0 + 5e-13)
    # CDF values on bucket edges (multiples of 2**-8) and a draw either
    # side of them
    e = 2.0 ** -54
    yield "dyadic", np.array([[0.5, 0.5, 0.0, 0.0, 0.0],
                              [0.25, 0.5, 0.25, 0.0, 0.0],
                              [0.0, 1 / 256, 127 / 128, 1 / 256, 0.0],
                              [0.0, 0.0, 0.25 + e, 0.5, 0.25 - e],
                              [0.0, 0.0, 0.0, 0.5 - 2 * e, 0.5 + 2 * e]])
    yield "dense", _rows(np.random.default_rng(3).uniform(0.1, 1.0, (6, 6)))
    # a window as wide as the row: the table is built one column at a time
    yield "dense_300", _rows(np.random.default_rng(300).uniform(
        0.1, 1.0, (300, 300)))
    yield "shift", np.roll(np.eye(5), 1, axis=1)           # window width 1
    yield "order_0", finite_chain(g2, 0).P


@pytest.mark.parametrize("name,P", list(_window_cases()),
                         ids=[c[0] for c in _window_cases()])
def test_windowed_step_equals_dense_step(name, P, monkeypatch):
    # the table step from every state at every draw of _draws equals the
    # dense step at u = k * 2**-53
    n = P.shape[0]
    table, window = _next_state_table(P)
    for state in range(n):
        k = _draws(P, state)
        where = np.full(k.size, state, dtype=np.intp)
        got = _table_step(table, window, where, k)
        assert np.array_equal(got, _dense_step(P, where, np.ldexp(k, -53)))
    # and whole simulations, across a chunk boundary
    monkeypatch.setattr(montecarlo, "_CHUNK", 1024)
    for start in sorted({0, n // 2, n - 1}):
        rep = simulate_chain(P, start, 5, 3000, seed=start)
        assert np.array_equal(rep.counts,
                              _dense_counts(P, start, 5, 3000, start, 1024))

