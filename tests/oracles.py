"""Independent test oracles.

These deliberately use different algorithms or code from the library
code they check: scipy's expm, QZ-based DARE solver and bilinear
(Cayley/Sylvester) Lyapunov solver for the numpy-only kernels in
sensact.linalg; the full Kronecker vectorization solve for discrete
Lyapunov equations (close to the library's upper-triangle solve, but
unrefined and on all n^2 unknowns); one such solve per phase for periodic
steady covariances (the library solves phase 0 once and propagates the
recursion); literal word-repetition for sequence reducibility;
rejection-free boundary sampling for ellipsoid support functions; and a
per-cell csv.writer for the trajectory CSV.
"""

import csv
import decimal
import math

import numpy as np
import scipy.linalg as sla


def scipy_expm(m):
    """exp(M) by scipy (Al-Mohy & Higham 2009 scaling and squaring)."""
    return sla.expm(np.asarray(m, dtype=float))


def decimal_expm(m, digits=40):
    """exp(M) in decimal arithmetic at the given number of digits: the
    Taylor series of M / 2^s, with ||M / 2^s||_1 <= 1/2, squared s times.
    A referee for scipy_expm, whose own relative error reaches 1e-12 on
    some non-normal matrices of one-norm about 30."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        m = np.asarray(m, dtype=float)
        n = m.shape[0]
        norm = float(np.abs(m).sum(axis=0).max(initial=0.0))
        s = max(0, math.ceil(math.log2(norm / 0.5))) if norm else 0
        scale = decimal.Decimal(2) ** s
        a = [[decimal.Decimal(float(v)) / scale for v in row] for row in m]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        total = [[decimal.Decimal(int(i == j)) for j in range(n)] for i in range(n)]
        term = total
        tiny = decimal.Decimal(10) ** -(digits + 5)
        for k in range(1, 200):
            term = [[v / k for v in row] for row in mul(term, a)]
            total = [[t + v for t, v in zip(trow, vrow)] for trow, vrow in zip(total, term)]
            if max(abs(v) for row in term for v in row) < tiny:
                break
        for _ in range(s):
            total = mul(total, total)
        return np.array([[float(v) for v in row] for row in total])


def scipy_dare(a, b, q, r):
    """Stabilizing DARE solution by scipy's generalized Schur (QZ) method."""
    return sla.solve_discrete_are(a, b, q, r)


def scipy_dlyap(f, w):
    """Solve X = F X F' + W by scipy's bilinear (Cayley) transformation to
    a continuous Lyapunov equation, solved by Bartels-Stewart."""
    return sla.solve_discrete_lyapunov(f, w, method="bilinear")


def write_trajectories_csv(path, trajectories):
    """trajectories.csv written cell by cell through csv.writer: repr of
    each float, blank u cells where u is non-finite, blank eta and u cells
    on each run's final row."""
    n = trajectories[0].x.shape[1]
    m = trajectories[0].u.shape[1]
    header = (["run", "k", "eta"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xh{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(m)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for run, traj in enumerate(trajectories):
            etas = [str(e) for e in traj.eta.tolist()] + [""]
            us = traj.u.tolist() + [[math.nan] * m]
            for k, (x, xh) in enumerate(zip(traj.x.tolist(), traj.xhat.tolist())):
                writer.writerow([run, k, etas[k]]
                                + [repr(v) for v in x]
                                + [repr(v) for v in xh]
                                + [repr(v) if math.isfinite(v) else "" for v in us[k]])


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
