"""Dense real-matrix kernel: spectral radius, matrix exponential,
discrete Lyapunov and Riccati solvers.

Everything downstream (plant construction, sequence certification,
covariance analysis) goes through these functions. They need numpy only:
Pade-13 scaling and squaring for the exponential, a solve on the upper
triangle of the Kronecker form for the Lyapunov equation, and doubling
(SDA) polished by Newton-Hewer steps for the Riccati equation. Each adds
input validation, typed errors and a residual check; a non-finite
intermediate or result raises NumericsError, never a warning.
"""

import functools
import math

import numpy as np

from .exceptions import DimensionError, DomainError, NumericsError, StabilityError

__all__ = [
    "as_matrix",
    "as_square",
    "check_symmetric",
    "check_psd",
    "sym_part",
    "psd_sqrt",
    "spectral_radius",
    "spectral_radii",
    "matrix_exponential",
    "solve_discrete_lyapunov",
    "solve_discrete_lyapunov_stacked",
    "solve_dare",
    "is_nilpotent",
]

#: relative tolerance used when validating symmetry / semi-definiteness
SYM_RTOL = 1e-10

#: the smallest normal float, the floor of a validated matrix's scale
_TINY = np.finfo(float).tiny

#: a Lyapunov solution X = F X F' + W is accepted when its residual is at
#: most LYAPUNOV_RTOL * (1 + ||W||_F) in the Frobenius norm
LYAPUNOV_RTOL = 1e-10

#: doubling steps before a stacked Lyapunov solve gives up on an item;
#: 2^64 terms of the series exhaust any radius below 1 - 1e-9
_MAX_DOUBLINGS = 64

#: [13/13] Pade coefficients b_0..b_13, and the 1-norm up to which that
#: approximant of exp is exact to double rounding (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

#: the Riccati doubling runs on Q + _DARE_SHIFT (1 + ||Q||_F) I, positive
#: definite, so that its limit is the stabilizing solution whenever (A, B)
#: is stabilizable; Newton-Hewer steps on Q itself then remove the shift
_DARE_SHIFT = 1e-8
#: Riccati doubling converges quadratically: 64 steps exhaust any
#: closed-loop radius that the Lyapunov steps after it can handle
_MAX_SDA_STEPS = 64
#: Newton-Hewer steps from the doubling start; two or three reach rounding
_MAX_NEWTON_STEPS = 20


def as_matrix(a, name="matrix") -> np.ndarray:
    """Coerce to a 2-D float array and reject non-finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} has non-finite entries")
    return m


def as_square(a, name="matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def check_symmetric(a, name="matrix", stacked=False) -> np.ndarray:
    """Validate symmetry to relative tolerance and return the exact
    symmetric part (so downstream eigh calls are well posed). With
    stacked=True, a is a (..., n, n) stack, validated matrix by matrix: it
    fails if any matrix does, with the message of the one-matrix check."""
    return (_symmetric_scaled if stacked else _symmetric_one)(a, name)[0]


def check_psd(a, name="matrix", stacked=False) -> np.ndarray:
    """Validate symmetric positive semi-definiteness (to tolerance), of one
    matrix or, with stacked=True, of each matrix of a (..., n, n) stack."""
    if stacked:
        m, unit, scale = _symmetric_scaled(a, name)
        bad = m.size and np.any(np.min(np.linalg.eigvalsh(sym_part(unit)), axis=-1)
                                < -SYM_RTOL * scale)
    else:
        m, unit, scale = _symmetric_one(a, name)
        # eigvalsh returns the eigenvalues in ascending order
        bad = m.size and np.linalg.eigvalsh(0.5 * unit + 0.5 * unit.T)[0] < -SYM_RTOL * scale
    if bad:
        raise DomainError(f"{name} is not positive semi-definite")
    return m


def _symmetric_one(a, name) -> tuple:
    """_symmetric_scaled's test of one matrix, returning (sym(M), M / s,
    1 / s + ||M / s||_F), in a dozen numpy calls: every command checks 5-6
    matrices while it sets up. The scalars are Python floats, and each
    Frobenius norm is one dot product of a raveled matrix."""
    m = as_square(a, name)
    s = max(float(np.abs(m).max(initial=0.0)), _TINY)
    unit = m / s
    flat = unit.ravel()
    scale = 1.0 / s + math.sqrt(flat @ flat)
    skew = (unit - unit.T).ravel()
    if math.sqrt(skew @ skew) > SYM_RTOL * scale:
        raise DomainError(f"{name} is not symmetric")
    return 0.5 * m + 0.5 * m.T, unit, scale


def _symmetric_scaled(a, name) -> tuple:
    """check_symmetric's test of each matrix M of a (..., n, n) stack,
    returning (sym(M), M / s, (1 + ||M||_F) / s), s the largest entry
    modulus of M, or the smallest normal float if that is larger, so that
    1 / s is finite: the tests of check_symmetric and check_psd are
    invariant under the division, which keeps their norms and eigenvalues
    from overflowing."""
    m = np.asarray(a, dtype=float)
    if m.ndim < 3 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{name} must be a stack of square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} has non-finite entries")
    s = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True, initial=0.0), _TINY)
    unit = m / s
    scale = 1.0 / s[..., 0, 0] + _fro(unit)
    if np.any(_fro(unit - unit.swapaxes(-1, -2)) > SYM_RTOL * scale):
        raise DomainError(f"{name} is not symmetric")
    return sym_part(m), unit, scale


def sym_part(a) -> np.ndarray:
    """(A + A') / 2, each term halved before the sum so that no finite
    entry overflows."""
    a = np.asarray(a, dtype=float)
    return 0.5 * a + 0.5 * a.swapaxes(-1, -2)


def psd_sqrt(a, name="matrix") -> np.ndarray:
    """Symmetric square root of a PSD matrix; tolerant of tiny negative
    eigenvalues from roundoff (clipped to zero)."""
    m = check_psd(a, name)
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of one square matrix: spectral_radii of
    the one-matrix stack."""
    return float(spectral_radii(as_square(m)[None])[0])


def spectral_radii(stack) -> np.ndarray:
    """Spectral radius of each matrix of a (K, n, n) stack, one batched
    eigvals call by the QR algorithm (which handles the complex conjugate
    pairs that orbital dynamics produce); 0 for an empty matrix."""
    try:
        eig = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericsError(f"eigenvalue computation failed: {exc}") from exc
    return np.abs(eig).max(axis=-1, initial=0.0)


def matrix_exponential(m) -> np.ndarray:
    """exp(M) by Pade-13 scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005): scale M by 2^-s so that ||M||_1 <= theta_13,
    take the [13/13] Pade approximant, and square it s times."""
    m = as_square(m)
    norm = np.abs(m).sum(axis=0).max(initial=0.0)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm else 0
    m = m / 2.0**s
    b = _PADE13
    ident = np.eye(m.shape[0])
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    with np.errstate(all="ignore"):
        e = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            e = e @ e
    if not np.all(np.isfinite(e)):
        raise NumericsError("matrix exponential overflows")
    return e


@functools.cache
def _folded_layout(n):
    """Index layout of the Kronecker operator folded onto symmetric n x n
    matrices: the upper-triangle positions (i, j) in row order; flat
    indices into F of f_ik, f_jl, f_il and f_jk for row (i, j) and column
    (k, l); and the column weights, 1/2 on the diagonal columns k = l,
    where the two products coincide."""
    i, j = np.triu_indices(n)
    gathers = tuple(r[:, None] * n + c[None, :] for r, c in ((i, i), (j, j), (i, j), (j, i)))
    weight = np.where(i == j, 0.5, 1.0)
    for arr in (i, j, weight) + gathers:
        arr.flags.writeable = False
    return i, j, gathers, weight


def _lyapunov_operator(f):
    """X - F X F' on symmetric X, as a matrix acting on the n(n+1)/2
    upper-triangle entries: row (i, j) reads
    x_ij - sum_{k <= l} (f_ik f_jl + f_il f_jk) x_kl, halved for k = l."""
    _, _, (ik, jl, il, jk), weight = _folded_layout(f.shape[0])
    flat = f.ravel()
    return np.eye(weight.size) - (flat[ik] * flat[jl] + flat[il] * flat[jk]) * weight


def _solve_symmetric(op, w):
    """The symmetric X with op @ triu(X) = triu(W), W symmetric."""
    i, j, _, _ = _folded_layout(w.shape[0])
    try:
        half = np.linalg.solve(op, w[i, j])
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Lyapunov operator is singular: {exc}") from exc
    x = np.empty_like(w)
    x[i, j] = x[j, i] = half
    return x


def solve_discrete_lyapunov(f, w) -> np.ndarray:
    """Unique solution X of X = F X F' + W for a Schur-stable F.

    X is symmetric, so the solve runs on its n(n+1)/2 upper-triangle
    entries: one dense solve of the Kronecker operator I - F (x) F folded
    onto symmetric matrices, followed by up to three refinement passes.
    """
    f = as_square(f, "F")
    w = check_symmetric(w, "W")
    if f.shape != w.shape:
        raise DimensionError(f"F {f.shape} and W {w.shape} differ in shape")
    rho = spectral_radius(f)
    if rho >= 1.0:
        raise StabilityError(f"spectral radius {rho:.6g} >= 1, no bounded solution")
    return _solve_lyapunov(f, w)


def _solve_lyapunov(f, w) -> np.ndarray:
    """solve_discrete_lyapunov without its stability guard, for a caller
    that has validated F and W and decided that F contracts."""
    tol = LYAPUNOV_RTOL * (1.0 + np.linalg.norm(w, "fro"))
    with np.errstate(all="ignore"):
        op = _lyapunov_operator(f)
        x = _solve_symmetric(op, w)
        resid = np.linalg.norm(x - f @ x @ f.T - w, "fro")
        # iterative refinement recovers the contract on stiff instances
        # (monodromy radius close to one makes the direct solve lose digits)
        for _ in range(3):
            if resid <= tol:
                break
            defect = sym_part(w - (x - f @ x @ f.T))
            x = x + _solve_symmetric(op, defect)
            new_resid = np.linalg.norm(x - f @ x @ f.T - w, "fro")
            if new_resid >= resid:
                break
            resid = new_resid
    # a NaN residual fails this test too
    if not resid <= tol:
        raise NumericsError(f"Lyapunov residual {resid:.3g} exceeds tolerance")
    return x


def _fro(stack) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...", stack, stack))


def solve_discrete_lyapunov_stacked(f, w):
    """Solve X = F X F' + W for each item of (K, n, n) stacks of Schur-stable
    F and symmetric W; returns (X, fallbacks).

    Doubling (the Smith iteration): X <- X + F X F', F <- F F sums the
    series sum_i F^i W F'^i in 2^j terms after j steps, for every item at
    once; an item stops once its increment is below rounding. Any item
    whose residual then misses the solve_discrete_lyapunov contract is
    solved again by solve_discrete_lyapunov; fallbacks counts those items.
    Near the unit circle, and more so when the powers of F grow before
    they decay, the squared powers cost doubling digits that the direct
    solver keeps.
    """
    x = w.copy()
    live = np.arange(len(f))
    power = f
    for _ in range(_MAX_DOUBLINGS):
        part = x[live]
        step = power @ part @ power.transpose(0, 2, 1)
        part += step
        x[live] = part
        # a non-finite increment also leaves, and then fails the residual
        keep = _fro(step) > np.finfo(float).eps * _fro(part)
        live, power = live[keep], power[keep]
        if not live.size:
            break
        power = power @ power
    x = 0.5 * (x + x.transpose(0, 2, 1))
    resid = _fro(x - f @ x @ f.transpose(0, 2, 1) - w)
    failed = np.flatnonzero(~(resid <= LYAPUNOV_RTOL * (1.0 + _fro(w))))
    for i in failed:
        x[i] = solve_discrete_lyapunov(f[i], w[i])
    return x, len(failed)


def _riccati_doubling(a, g, h):
    """Structure-preserving doubling (Chu, Fan & Lin, 2005) for
    P = A' P (I + G P)^-1 A + H:

        A <- A (I + G H)^-1 A,  G <- G + A (I + G H)^-1 G A',
        H <- H + A' H (I + G H)^-1 A,

    whose H converges quadratically to the solution that stabilizes the
    closed loop when H is positive definite and (A, G) stabilizable."""
    n = a.shape[0]
    ident = np.eye(n)
    # overflow (an unstabilizable plant) ends in NumericsError, not a warning
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SDA_STEPS):
            try:
                step = np.linalg.solve(ident + g @ h, np.hstack([a, g]))
            except np.linalg.LinAlgError:
                break
            h_next = sym_part(h + a.T @ h @ step[:, :n])
            g = sym_part(g + a @ step[:, n:] @ a.T)
            a = a @ step[:, :n]
            size = np.linalg.norm(h_next, "fro")
            if not np.isfinite(size):
                break
            change = np.linalg.norm(h_next - h, "fro")
            h = h_next
            if change <= np.finfo(float).eps * size:
                return h
    raise NumericsError("Riccati doubling did not converge; "
                        "(A, B) may not be stabilizable")


def _newton_hewer(a, b, q, r, p):
    """Newton-Hewer steps from a stabilizing P. With the gain
    K = (R + B'PB)^-1 B'PA, Hewer's next iterate solves
    P+ = (A - BK)' P+ (A - BK) + Q + K'RK; it is taken here as P + X,
    where X = (A - BK)' X (A - BK) + Res(P) and Res(P) is the Riccati
    residual, so that each Lyapunov solve works on a small correction
    rather than on P itself. A step not smaller than the one before is
    rounding noise and is dropped; iteration also stops when the
    correction of an ill-conditioned closed loop misses the Lyapunov
    contract. solve_dare's residual check then judges the last iterate."""
    change = np.inf
    for _ in range(_MAX_NEWTON_STEPS):
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        resid = sym_part(a.T @ p @ a - a.T @ p @ b @ gain + q - p)
        try:
            step = solve_discrete_lyapunov((a - b @ gain).T, resid)
        except StabilityError as exc:
            raise NumericsError(f"Riccati iterate is not stabilizing: {exc}") from exc
        except NumericsError:
            break
        last, change = change, np.linalg.norm(step, "fro")
        if change >= last:
            break
        p = p + step
        if change <= np.finfo(float).eps * np.linalg.norm(p, "fro"):
            break
    return p


def solve_dare(a, b, q, r) -> np.ndarray:
    """Stabilizing solution P of the discrete-time algebraic Riccati
    equation P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.

    R must be positive definite; (A, B) must be stabilizable. Doubling on
    a slightly shifted Q gives a stabilizing start, and Newton-Hewer
    steps on Q itself (one Lyapunov solve each) polish it, so a singular
    or zero Q still yields the stabilizing solution. The result is checked
    against the fixed-point residual and the closed-loop spectral radius
    before being returned.
    """
    a = as_square(a, "A")
    b = as_matrix(b, "B")
    q = check_psd(q, "Q")
    r = check_symmetric(r, "R")
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionError(f"B has {b.shape[0]} rows, expected {n}")
    if q.shape != (n, n):
        raise DimensionError(f"Q has shape {q.shape}, expected {(n, n)}")
    if r.shape != (b.shape[1],) * 2:
        raise DimensionError(f"R has shape {r.shape}, expected square of size {b.shape[1]}")
    if r.size and np.min(np.linalg.eigvalsh(r)) <= 0.0:
        raise DomainError("R must be positive definite")

    if not b.any():
        # no control authority: the Riccati equation degenerates to the
        # Lyapunov equation P = A'PA + Q, solvable only for stable A
        if spectral_radius(a) >= 1.0:
            raise StabilityError("(A, B) is not stabilizable (B = 0, A unstable)")
        p = solve_discrete_lyapunov(a.T, q)
    else:
        g = sym_part(b @ np.linalg.solve(r, b.T))
        shift = _DARE_SHIFT * (1.0 + np.linalg.norm(q, "fro"))
        p = _riccati_doubling(a, g, q + shift * np.eye(n))
        p = _newton_hewer(a, b, q, r, p)

    gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    resid = np.linalg.norm(p - (a.T @ p @ a - a.T @ p @ b @ gain + q), "fro")
    # a NaN residual fails this test too
    if not resid <= 1e-8 * (1.0 + np.linalg.norm(p, "fro")):
        raise NumericsError(f"Riccati residual {resid:.3g} exceeds tolerance")
    if spectral_radius(a - b @ gain) >= 1.0:
        raise NumericsError("DARE solution is not stabilizing")
    return p


def is_nilpotent(m):
    """Numerical nilpotency test of one square matrix (returns a bool) or
    of each matrix of a (K, n, n) stack (returns a bool array).

    Submultiplicativity gives ||M^n|| <= ||M^k|| ||M^(n-k)|| for every
    split k; a genuinely non-nilpotent matrix stays within a bounded
    factor of that product (both sides are >= rho^n), while a nilpotent
    chain collapses ||M^n|| to rounding noise. Flag when the n-th power
    undershoots the tightest split product by twelve orders of magnitude
    (a zero matrix does; a 1 x 1 matrix is nilpotent when it is zero).
    The ratio is scale invariant, so strongly contractive matrices are
    never misflagged. A stack takes one power loop and one norm reduction.
    """
    single = np.ndim(m) != 3
    stack = as_square(m)[None] if single else np.asarray(m, dtype=float)
    n = stack.shape[-1]
    if n < 2:
        verdicts = _fro(stack) == 0.0
        return bool(verdicts[0]) if single else verdicts
    powers = np.empty((n,) + stack.shape)  # powers[j] = M^(j + 1)
    powers[0] = stack
    for j in range(1, n):
        np.matmul(powers[j - 1], stack, out=powers[j])
    norms = _fro(powers)
    # the tightest split ||M^k|| ||M^(n-k)||, k = 1 .. n - 1
    split = (norms[:n - 1] * norms[n - 2::-1]).min(axis=0)
    verdicts = norms[-1] <= 1e-12 * split
    return bool(verdicts[0]) if single else verdicts
