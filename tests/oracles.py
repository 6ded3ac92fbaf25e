"""Independent test oracles.

These deliberately use different algorithms from the library code they
check: the Kronecker vectorization solve for discrete Lyapunov equations
(the library uses a bilinear/Sylvester route), one such solve per phase
for periodic steady covariances (the library solves phase 0 once and
propagates the recursion), literal word-repetition for sequence
reducibility, and rejection-free boundary sampling for ellipsoid support
functions.
"""

import numpy as np


def kron_dlyap(f, w):
    """Solve X = F X F' + W by vectorization: (I - F(x)F) vec(X) = vec(W)."""
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    n = f.shape[0]
    lhs = np.eye(n * n) - np.kron(f, f)
    x = np.linalg.solve(lhs, w.flatten(order="F"))
    return x.reshape((n, n), order="F")


def periodic_dlyap_phases(a_seq, w_seq):
    """Steady phases of P_{k+1} = A_k P_k A_k' + W_k (indices mod N): for
    each phase k, a Kronecker solve against the one-period monodromy and
    accumulated noise that start at phase k."""
    period = len(a_seq)
    n = np.asarray(a_seq[0]).shape[0]
    phases = []
    for k in range(period):
        m = np.eye(n)
        w = np.zeros((n, n))
        for j in range(k, k + period):
            a = np.asarray(a_seq[j % period], dtype=float)
            m = a @ m
            w = a @ w @ a.T + w_seq[j % period]
        phases.append(kron_dlyap(m, w))
    return phases


def brute_force_core(bits):
    """Shortest prefix whose literal concatenation rebuilds the word."""
    bits = tuple(bits)
    n = len(bits)
    for p in range(1, n + 1):
        if n % p == 0 and bits[:p] * (n // p) == bits:
            return bits[:p]
    raise AssertionError("unreachable")


def sampled_ellipsoid_support(p, alpha, direction, samples, seed=0):
    """Max of a'x over sampled boundary points of {x : x'P^-1 x <= a^2},
    parameterized as alpha * sqrt(P) u with ||u|| = 1."""
    rng = np.random.default_rng(seed)
    p = np.asarray(p, dtype=float)
    w, v = np.linalg.eigh(p)
    sqrt_p = (v * np.sqrt(np.clip(w, 0, None))) @ v.T
    u = rng.standard_normal((samples, p.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = alpha * u @ sqrt_p.T
    return float(np.max(pts @ np.asarray(direction, dtype=float)))


def make_stable(rng, n, rho):
    """Random matrix scaled to the requested spectral radius."""
    m = rng.standard_normal((n, n))
    return m * (rho / max(abs(np.linalg.eigvals(m))))


def make_psd(rng, n, scale=1.0):
    root = rng.standard_normal((n, n))
    return scale * (root @ root.T) / n


def fit_decay_rate(values):
    """Least-squares slope of log(values) against the index; exp(slope)
    estimates the per-step geometric rate."""
    values = np.asarray(values, dtype=float)
    k = np.arange(values.size)
    mask = values > 0
    slope = np.polyfit(k[mask], np.log(values[mask]), 1)[0]
    return float(np.exp(slope))
