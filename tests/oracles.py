"""Independent test oracles.

These deliberately use different algorithms or code from the library
code they check: scipy's expm, QZ-based DARE solver and bilinear
(Cayley/Sylvester) Lyapunov solver for the numpy-only kernels in
sensact.linalg; the full Kronecker vectorization solve for discrete
Lyapunov equations (close to the library's upper-triangle solve, but
unrefined and on all n^2 unknowns); one such solve per phase for periodic
steady covariances, and the step-by-step recursion from phase 0 (the
library solves phase 0 once and forms every other phase from one prefix
scan); the paper's block definitions of the joint (state, error) step,
its noise multiplied out through Gbreve, for the library's joint step
stacks; literal word-repetition for sequence reducibility;
rejection-free boundary sampling for ellipsoid support functions; a
per-cell csv.writer for the trajectory CSV; the stdlib's own indented
json.dumps for the canonical JSON writer; two one-side monodromy products
from the identity, each with its own eigvals call, for the stacked
admissibility radii; a row-by-row array writer for the interleaved
one-join array writer; and the scalar formulas the library does not
export: the blended cost as the mean of per-phase traces (the search folds
it into one segment), the one-step error noise of one mode, and the
bounding-sphere radius and support function of one Chebyshev ellipsoid
(chance verification takes every phase at once); exact integer matrix
powers for the growth constants' log-scaled power walk; the two explicit
loops, one-period map then phases, for the steady mean phases (the
library solves one prefix scan of homogeneous steps); and step-by-step
loops of the mean and covariance recursions for the library's transient,
which scans one period and advances whole periods by stacked products;
and the broadcasting one-matrix path of the symmetric and
semi-definite checks, norms by einsum over stacks, for the library's
one-matrix kernel of Python-float scalars and dot-product norms.
ellipsoid_exceedance, the per-step fraction of an ensemble outside the
phase Chebyshev ellipsoids, has no library counterpart: no command reads
it.
"""

import csv
import decimal
import json
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from sensact import linalg
from sensact.chance import chebyshev_alpha
from sensact.exceptions import DimensionError, DomainError
from sensact.sequence import SwitchSequence


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


def write_trajectories_csv(path, stats):
    """trajectories.csv of an ensemble record written cell by cell through
    csv.writer: repr of each float, blank u cells where u is non-finite,
    blank eta and u cells on each run's final row."""
    n = stats.x.shape[2]
    m = stats.u.shape[2]
    header = (["run", "k", "eta"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xh{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(m)])
    etas = [str(e) for e in stats.eta.tolist()] + [""]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for run in range(stats.x.shape[0]):
            us = stats.u[run].tolist() + [[math.nan] * m]
            for k, (x, xh) in enumerate(zip(stats.x[run].tolist(), stats.xhat[run].tolist())):
                writer.writerow([run, k, etas[k]]
                                + [repr(v) for v in x]
                                + [repr(v) for v in xh]
                                + [repr(v) if math.isfinite(v) else "" for v in us[k]])


def write_ensemble_csv(path, stats):
    """ensemble.csv of an ensemble record written cell by cell through
    csv.writer: the step, repr of each mean entry, and repr of the
    violation fraction, blank when the record has none."""
    n = stats.mean.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"mean_x{i + 1}" for i in range(n)] + ["violation_fraction"])
        for k, mean in enumerate(stats.mean.tolist()):
            viol = "" if stats.violation is None else repr(float(stats.violation[k]))
            writer.writerow([k] + [repr(v) for v in mean] + [viol])


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


def recursive_steady_phases(a_seq, w_seq):
    """Steady phases of P_{k+1} = A_k P_k A_k' + W_k (indices mod N) by the
    recursion: the one-period monodromy M and noise W multiplied out step
    by step from phase 0, P_0 from the library's own Lyapunov solve of
    P = M P M' + W, and each later phase propagated from the one before.
    Sharing the solve isolates the order in which the library forms the
    phases; the solve has its own oracles (kron_dlyap, scipy_dlyap)."""
    n = np.asarray(a_seq[0]).shape[0]
    big_m = np.eye(n)
    big_w = np.zeros((n, n))
    for a, w in zip(a_seq, w_seq):
        big_m = a @ big_m
        big_w = a @ big_w @ a.T + w
    p = linalg._solve_lyapunov(big_m, linalg.sym_part(big_w))
    phases = [p]
    for a, w in zip(a_seq[:-1], w_seq[:-1]):
        p = linalg.sym_part(a @ p @ a.T + w)
        phases.append(p)
    return phases


def augmented_matrices(model, gains, eta):
    """(Abreve, Gbreve) of the joint z = [x; e] step of one mode, from the
    paper's block definitions, z+ = Abreve z + Gbreve [v; w]:

        Abreve = [A + eta BK,  -eta BK ]    Gbreve = [0,            I]
                 [0,           Atil_eta]             [(1 - eta) L,  I]
    """
    n, p = model.n, model.p
    bk = model.b @ gains.k
    a_breve = np.zeros((2 * n, 2 * n))
    a_breve[:n, :n] = model.a + eta * bk
    a_breve[:n, n:] = -eta * bk
    a_breve[n:, n:] = model.a + (1 - eta) * gains.l @ model.c
    gamma = np.zeros((2 * n, p + n))
    gamma[:n, p:] = np.eye(n)
    gamma[n:, :p] = (1 - eta) * gains.l
    gamma[n:, p:] = np.eye(n)
    return a_breve, gamma


@dataclass(frozen=True)
class AugmentedModel:
    """The joint system of both modes by augmented_matrices, with the
    step noise Gbreve diag(Sigma_v, Sigma_w) Gbreve' multiplied out in
    full (sensact.covariance._joint_steps writes its blocks down)."""

    a_modes: tuple      # Abreve for eta = 0, 1
    gamma_modes: tuple  # Gbreve for eta = 0, 1
    noise_cov: np.ndarray  # diag(Sigma_v, Sigma_w)

    def step_noise(self, eta):
        g = self.gamma_modes[eta]
        return linalg.sym_part(g @ self.noise_cov @ g.T)


def build_augmented(model, gains):
    modes = [augmented_matrices(model, gains, eta) for eta in (0, 1)]
    p = model.p
    noise = np.zeros((p + model.n, p + model.n))
    noise[:p, :p] = model.sigma_v
    noise[p:, p:] = model.sigma_w
    return AugmentedModel(a_modes=tuple(m[0] for m in modes),
                          gamma_modes=tuple(m[1] for m in modes), noise_cov=noise)


def brute_force_core(bits):
    """Shortest prefix whose literal concatenation rebuilds the word."""
    bits = tuple(bits)
    n = len(bits)
    for p in range(1, n + 1):
        if n % p == 0 and bits[:p] * (n // p) == bits:
            return bits[:p]
    raise AssertionError("unreachable")


def stdlib_json(obj):
    """The canonical JSON text by the stdlib encoder: sorted keys, 2-space
    indent, no NaN or infinity, and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def two_product_radii(bits, mm):
    """(qbar, qtilde): the spectral radii of the control and observer
    one-period products, each multiplied out from the identity on its
    own, index 0 applied first, with one eigvals call per product."""
    prod_bar = np.eye(mm.n)
    prod_til = np.eye(mm.n)
    for eta in bits:
        prod_bar = mm.abar(eta) @ prod_bar
        prod_til = mm.atilde(eta) @ prod_til
    return tuple(float(np.max(np.abs(np.linalg.eigvals(m)))) for m in (prod_bar, prod_til))


def rowwise_fill_arrays(text, arrays):
    """The array writer of sensact.modelio before its single join: text
    holds one NUL per (array, newline) of arrays; each is written with
    one join per row and one per array, every distinct bit pattern
    formatted once."""
    values = np.concatenate([a.ravel() for a, _ in arrays])
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    texts = operator.itemgetter(*inverse.tolist())(reprs) if len(values) > 1 else reprs
    parts = text.split("\x00")
    out, start = [parts[0]], 0
    for (a, newline), tail in zip(arrays, parts[1:]):
        items = texts[start:start + a.size]
        start += a.size
        inner = newline + "  "
        if a.ndim == 2:
            cols = a.shape[1]
            row_inner = inner + "  "
            row_sep = "," + row_inner
            items = ["[" + row_inner + row_sep.join(items[i:i + cols]) + inner + "]"
                     for i in range(0, a.size, cols)]
        out += ["[", inner, ("," + inner).join(items), newline, "]", tail]
    return "".join(out)


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


def check_psd_reference(a, name="matrix", psd=True):
    """linalg.check_psd of one matrix, or check_symmetric with psd=False,
    as they were computed before the one-matrix kernel: the stacked path's
    broadcasting code, run on one matrix. s is the largest entry modulus
    (floored at the smallest normal float), the symmetry bound is
    SYM_RTOL (1/s + ||M/s||_F), and the semi-definite test takes the
    smallest eigenvalue of sym(M/s) against the same bound."""
    m = np.asarray(a, dtype=float)
    m = linalg.as_square(m, name)
    s = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True, initial=0.0),
                   np.finfo(float).tiny)
    unit = m / s
    scale = 1.0 / s[..., 0, 0] + _einsum_fro(unit)
    if np.any(_einsum_fro(unit - unit.swapaxes(-1, -2)) > linalg.SYM_RTOL * scale):
        raise DomainError(f"{name} is not symmetric")
    if psd and m.size and np.any(np.min(np.linalg.eigvalsh(_halved_sym(unit)), axis=-1)
                                 < -linalg.SYM_RTOL * scale):
        raise DomainError(f"{name} is not positive semi-definite")
    return _halved_sym(m)


def _einsum_fro(stack):
    return np.sqrt(np.einsum("...ij,...ij->...", stack, stack))


def _halved_sym(a):
    return 0.5 * a + 0.5 * a.swapaxes(-1, -2)


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


def sequence_cost(s, steady_err, steady_state, weights):
    """Normalized blended cost of a sequence given its steady phase
    covariances, phase by phase. Either covariance family may be omitted
    when its weight is zero or absent."""
    bits = tuple(SwitchSequence.from_string(s) if isinstance(s, str) else s)
    n_period = len(bits)
    total = weights.r_eta * sum(bits)
    if weights.needs_error_cov:
        if steady_err is None or steady_err.period != n_period:
            raise DimensionError("error covariance phases do not match the sequence period")
        total += sum(float(np.trace(weights.r_err @ p)) for p in steady_err)
    if weights.needs_state_cov:
        if steady_state is None or steady_state.period != n_period:
            raise DimensionError("state covariance phases do not match the sequence period")
        total += sum(float(np.trace(weights.r_state @ p)) for p in steady_state)
    return total / n_period


def error_noise_term(eta, l, sigma_v, sigma_w):
    """One-step error-covariance noise R = (1 - eta) L Sigma_v L' + Sigma_w
    of one mode, with the checks of the library's public entry points."""
    if eta not in (0, 1):
        raise DomainError("eta must be 0 or 1")
    l = linalg.as_matrix(l, "L")
    sigma_v = linalg.check_psd(sigma_v, "sigma_v")
    sigma_w = linalg.check_psd(sigma_w, "sigma_w")
    if l.shape[1] != sigma_v.shape[0]:
        raise DimensionError("L and sigma_v dimensions are inconsistent")
    if sigma_w.shape[0] != l.shape[0]:
        raise DimensionError("L and sigma_w dimensions are inconsistent")
    return linalg.sym_part(l @ sigma_v @ l.T + sigma_w) if eta == 0 else sigma_w


@dataclass(frozen=True)
class ChanceSpec:
    """Violation budget and the dimension it applies to."""

    delta: float
    n_x: int

    def __post_init__(self):
        chebyshev_alpha(self.n_x, self.delta)  # validates both fields

    @property
    def alpha(self):
        return chebyshev_alpha(self.n_x, self.delta)


def confidence_radius(p, alpha):
    """Radius of the smallest origin-centered sphere containing the
    ellipsoid {x : x' P^-1 x <= alpha^2}, namely alpha * sqrt(lambda_max(P))."""
    p = linalg.check_psd(p, "P")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return float(alpha * np.sqrt(np.max(np.linalg.eigvalsh(p))))


def ellipsoid_support(p, alpha, direction):
    """Support function alpha * sqrt(a' P a) of the Chebyshev ellipsoid in
    direction a. Well defined for singular P (no inverse is formed)."""
    p = linalg.check_psd(p, "P")
    a = np.asarray(direction, dtype=float).ravel()
    if a.shape != (p.shape[0],):
        raise DimensionError("direction dimension does not match P")
    if not np.any(a):
        raise DomainError("support direction must be nonzero")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return float(alpha * np.sqrt(max(a @ p @ a, 0.0)))


def exact_log_fro_power(m, k):
    """log ||M^k||_F of a float matrix M from its exact power: M = N / 2^e
    with N an integer matrix, so M^k = N^k / 2^(ek) in Python integers."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in np.asarray(m)]
    e = max(den.bit_length() - 1 for row in ratios for _, den in row)
    n = [[num << (e - den.bit_length() + 1) for num, den in row] for row in ratios]
    power = n
    for _ in range(k - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*n)] for row in power]
    return 0.5 * math.log(sum(x * x for row in power for x in row)) - k * e * math.log(2.0)


def loop_steady_mean_phases(mm, s, target):
    """Steady state-mean phases of mu+ = Abar_k mu + eta_k B (u_T - K x_T)
    by two explicit loops: the one-period map (M, drift) from the
    identity and zero, mu_0 = (I - M)^-1 drift, then the phases."""
    bits = SwitchSequence.from_string(s).bits if isinstance(s, str) else tuple(s)
    n = mm.n
    feed = mm.b @ (target.u_target - mm.k @ target.x_target)
    big_m, drift = np.eye(n), np.zeros(n)
    for eta in bits:
        a = mm.abar(eta)
        drift = a @ drift + feed * eta
        big_m = a @ big_m
    mu = np.linalg.solve(np.eye(n) - big_m, drift)
    phases = np.empty((len(bits), n))
    for k, eta in enumerate(bits):
        phases[k] = mu
        mu = mm.abar(eta) @ mu + feed * eta
    return phases


def loop_mean_propagate(mm, mu_x0, mu_e0, s, target, steps):
    """State and error means over steps 0 ... steps, each (steps + 1, n),
    one step at a time from (mu_x0, mu_e0):

        mu_x+ = Abar_k mu_x - eta_k B K mu_e + eta_k B (u_T - K x_T),
        mu_e+ = Atil_k mu_e."""
    bits = SwitchSequence.from_string(s).bits if isinstance(s, str) else tuple(s)
    mu_x = np.asarray(mu_x0, dtype=float).ravel()
    mu_e = np.asarray(mu_e0, dtype=float).ravel()
    bk = mm.b @ mm.k
    feed = mm.b @ (target.u_target - mm.k @ target.x_target)
    xs, es = [mu_x], [mu_e]
    for k in range(steps):
        eta = bits[k % len(bits)]
        mu_x = mm.abar(eta) @ mu_x - eta * (bk @ mu_e) + eta * feed
        mu_e = mm.atilde(eta) @ mu_e
        xs.append(mu_x)
        es.append(mu_e)
    return np.array(xs), np.array(es)


def loop_cov_propagate(a_modes, w_modes, p0, s, steps):
    """Covariances P_0 ... P_steps of P+ = sym(A_eta P A_eta' + W_eta), one
    step at a time under the periodic extension of the word s, given the
    step matrices and noise of each mode."""
    bits = SwitchSequence.from_string(s).bits if isinstance(s, str) else tuple(s)
    p = np.asarray(p0, dtype=float)
    out = [p]
    for k in range(steps):
        eta = bits[k % len(bits)]
        p = linalg.sym_part(a_modes[eta] @ p @ a_modes[eta].T + w_modes[eta])
        out.append(p)
    return np.array(out)


def ellipsoid_exceedance(xs, phase_covs, phase_means, alpha: float,
                         components=None) -> np.ndarray:
    """Per-step fraction of runs outside the phase Chebyshev ellipsoid
    (x - mu)' P^-1 (x - mu) > alpha^2, on the selected components of a
    stacked (runs, steps+1, n) array; step k is phase k mod the period."""
    runs, horizon, n = xs.shape
    idx = tuple(range(n)) if components is None else tuple(components)
    sel = np.ix_(idx, idx)
    period = phase_covs.period
    inverses = [np.linalg.pinv(phase_covs[j][sel]) for j in range(period)]
    out = np.empty(horizon)
    for k in range(horizon):
        mu_c = np.asarray(phase_means)[k % period][list(idx)]
        diff = xs[:, k, list(idx)] - mu_c
        q = np.einsum("ri,ij,rj->r", diff, inverses[k % period], diff)
        out[k] = np.mean(q > alpha**2)
    return out
