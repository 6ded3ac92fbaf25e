"""Dense real-matrix kernel: norms, spectral radius, matrix exponential,
discrete Lyapunov and Riccati solvers.

Everything downstream (plant construction, sequence certification,
covariance analysis) goes through these wrappers, which add input
validation, typed errors and residual checks on top of LAPACK-backed
scipy routines.
"""

import numpy as np
import scipy.linalg as sla

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
    "spectral_norm",
    "frobenius_norm",
    "matrix_exponential",
    "solve_discrete_lyapunov",
    "solve_discrete_lyapunov_stacked",
    "solve_dare",
    "is_nilpotent",
]

#: relative tolerance used when validating symmetry / semi-definiteness
SYM_RTOL = 1e-10

#: a Lyapunov solution X = F X F' + W is accepted when its residual is at
#: most LYAPUNOV_RTOL * (1 + ||W||_F) in the Frobenius norm
LYAPUNOV_RTOL = 1e-10

#: doubling steps before a stacked Lyapunov solve gives up on an item;
#: 2^64 terms of the series exhaust any radius below 1 - 1e-9
_MAX_DOUBLINGS = 64


def as_matrix(a, name="matrix") -> np.ndarray:
    """Coerce to a 2-D float array and reject non-finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} has non-finite entries")
    return m


def as_square(a, name="matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def check_symmetric(a, name="matrix") -> np.ndarray:
    """Validate symmetry to relative tolerance and return the exact
    symmetric part (so downstream eigh calls are well posed)."""
    m = as_square(a, name)
    scale = 1.0 + np.linalg.norm(m, "fro")
    if np.linalg.norm(m - m.T, "fro") > SYM_RTOL * scale:
        raise DomainError(f"{name} is not symmetric")
    return sym_part(m)


def check_psd(a, name="matrix") -> np.ndarray:
    """Validate symmetric positive semi-definiteness (to tolerance)."""
    m = check_symmetric(a, name)
    scale = 1.0 + np.linalg.norm(m, "fro")
    if m.size and np.min(np.linalg.eigvalsh(m)) < -SYM_RTOL * scale:
        raise DomainError(f"{name} is not positive semi-definite")
    return m


def sym_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def psd_sqrt(a, name="matrix") -> np.ndarray:
    """Symmetric square root of a PSD matrix; tolerant of tiny negative
    eigenvalues from roundoff (clipped to zero)."""
    m = check_psd(a, name)
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, via the QR algorithm (handles the
    complex conjugate pairs that orbital dynamics produce)."""
    m = as_square(m)
    if m.size == 0:
        return 0.0
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericsError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eig)))


def spectral_radii(stack) -> np.ndarray:
    """Spectral radius of each matrix of a (K, n, n) stack, one batched
    eigvals call; row for row the values spectral_radius returns."""
    try:
        eig = np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue computation failed: {exc}") from exc
    return np.max(np.abs(eig), axis=-1)


def spectral_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m), 2))


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m), "fro"))


def matrix_exponential(m) -> np.ndarray:
    """exp(M) by scaling-and-squaring with Pade approximation."""
    return sla.expm(as_square(m))


def solve_discrete_lyapunov(f, w) -> np.ndarray:
    """Unique solution X of X = F X F' + W for a Schur-stable F.

    Uses the bilinear (Cayley) transformation to a Sylvester problem,
    which keeps the solver algorithmically independent of the Kronecker
    vectorization used as a test oracle.
    """
    f = as_square(f, "F")
    w = check_symmetric(w, "W")
    if f.shape != w.shape:
        raise DimensionError(f"F {f.shape} and W {w.shape} differ in shape")
    rho = spectral_radius(f)
    if rho >= 1.0:
        raise StabilityError(f"spectral radius {rho:.6g} >= 1, no bounded solution")
    x = sym_part(sla.solve_discrete_lyapunov(f, w, method="bilinear"))
    tol = LYAPUNOV_RTOL * (1.0 + np.linalg.norm(w, "fro"))
    resid = np.linalg.norm(x - f @ x @ f.T - w, "fro")
    # iterative refinement recovers the contract on stiff instances
    # (monodromy radius close to one makes the direct solve lose digits)
    for _ in range(3):
        if resid <= tol:
            break
        defect = sym_part(w - (x - f @ x @ f.T))
        x = sym_part(x + sla.solve_discrete_lyapunov(f, defect, method="bilinear"))
        new_resid = np.linalg.norm(x - f @ x @ f.T - w, "fro")
        if new_resid >= resid:
            break
        resid = new_resid
    if resid > tol:
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


def solve_dare(a, b, q, r) -> np.ndarray:
    """Stabilizing solution P of the discrete-time algebraic Riccati
    equation P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.

    R must be positive definite; (A, B) must be stabilizable. The result
    is checked against the fixed-point residual and the closed-loop
    spectral radius before being returned.
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
        try:
            p = sym_part(sla.solve_discrete_are(a, b, q, r))
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericsError(f"DARE solve failed: {exc}") from exc

    gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    resid = np.linalg.norm(p - (a.T @ p @ a - a.T @ p @ b @ gain + q), "fro")
    if resid > 1e-8 * (1.0 + np.linalg.norm(p, "fro")):
        raise NumericsError(f"Riccati residual {resid:.3g} exceeds tolerance")
    if spectral_radius(a - b @ gain) >= 1.0:
        raise NumericsError("DARE solution is not stabilizing")
    return p


def is_nilpotent(m) -> bool:
    """Numerical nilpotency test.

    Submultiplicativity gives ||M^n|| <= ||M^k|| ||M^(n-k)|| for every
    split k; a genuinely non-nilpotent matrix stays within a bounded
    factor of that product (both sides are >= rho^n), while a nilpotent
    chain collapses ||M^n|| to rounding noise. Flag when the n-th power
    undershoots the tightest split product by twelve orders of magnitude.
    The ratio is scale invariant, so strongly contractive matrices are
    never misflagged.
    """
    m = as_square(m)
    n = m.shape[0]
    norm0 = np.linalg.norm(m, "fro")
    if norm0 == 0.0:
        return True
    if n == 1:
        return False
    powers = [m]
    for _ in range(n - 1):
        powers.append(powers[-1] @ m)
    norms = [np.linalg.norm(p, "fro") for p in powers]
    denom = min(norms[k - 1] * norms[n - k - 1] for k in range(1, n))
    return bool(norms[-1] <= 1e-12 * denom)
