"""One-dimensional mode eigenproblems for rotationally symmetric spheres.

Separating the angular dependence e^(i*k*theta) reduces the Laplacian to the
family of singular Sturm-Liouville operators

    L_k u = -(f u')' + (k^2 / f) u        on (-1, 1),

whose spectra are simple. Modes +-k share a spectrum, so only k >= 0 is ever
solved, by Rayleigh-Ritz in a Jacobi-Galerkin basis. With w = 1 - x^2 and
q = f/w the trial functions are u = w^(k/2) v, v a polynomial of degree < N
expanded in the orthonormal Jacobi polynomials P_j^(k,k) (weight w^k). The
factor w^(k/2) is the intrinsic pole behaviour of mode k, so no boundary
condition is imposed, and the quadratic forms become

    stiffness = int w^(k-1) [q (w v' - k x v)^2 + k^2 v^2 / q] dx,
    mass      = int w^k v^2 dx,

integrated by Gauss-Legendre on each of the profile's smooth pieces
(MetricProfile.breaks), exactly for every polynomial factor. The paper's
trial functions f^(m/2) are a one-term Ritz space of this kind, and on the
round sphere the basis holds the exact eigenfunctions.

The basis size doubles from max(16, count + 8) until two sizes agree within
rel_tol. The error estimate is that difference, floored at 1e-10 relative:
below that both sizes sit at roundoff and the difference stops bounding the
error. Smooth profiles converge spectrally, splines algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.special import roots_legendre

from .errors import DomainError
from .profile import MetricProfile, liouville_length
from .quadrature import QuadratureConfig

_MIN_BASIS = 16
#: Basis functions kept beyond the eigenvalues asked for.
_BASIS_MARGIN = 8
#: Relative floor of the reported error estimates (see module docstring).
_ERROR_FLOOR = 1e-10
#: Gauss nodes per smooth piece beyond the N + k that the polynomial factors
#: need, for the non-polynomial factors q and 1/q.
_EXTRA_NODES = 24
#: Entries per basis table in one assembly block: nodes are processed in
#: blocks of _BLOCK_ENTRIES // N, so assembly memory stays O(N^2).
_BLOCK_ENTRIES = 16384
#: Cells of the grid eigenfunctions are sampled on.
_SAMPLE_CELLS = 256


@dataclass(frozen=True)
class SolverConfig:
    """Basis-size policy for the mode solver: tolerance and cap on N."""

    n_max: int = 1024
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_max < _MIN_BASIS:
            raise ValueError(f"n_max must be >= {_MIN_BASIS}")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class SLSpectrumSlice:
    """The lowest eigenvalues of one mode operator, with error estimates.

    ``eigenvalues`` is strictly increasing (the mode spectra are simple);
    ``error_estimates`` are absolute, per eigenvalue. ``grid_used`` is the
    final basis size N; ``converged`` records whether every estimate met
    rel_tol before the basis cap.
    """

    k: int
    eigenvalues: tuple
    error_estimates: tuple
    grid_used: int
    converged: bool

    def to_json_dict(self):
        return {
            "k": self.k,
            "eigenvalues": list(self.eigenvalues),
            "error_estimates": list(self.error_estimates),
            "grid_used": self.grid_used,
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            k=int(data["k"]),
            eigenvalues=tuple(data["eigenvalues"]),
            error_estimates=tuple(data["error_estimates"]),
            grid_used=int(data["grid_used"]),
            converged=bool(data["converged"]),
        )


@dataclass(frozen=True)
class TraceReport:
    """Partial sum of reciprocal mode eigenvalues against the 1/k identity.

    For k != 0 the reciprocals of SpecL_k sum to exactly 1/|k| (the trace of
    the mode's Green operator). ``partial_sum`` collects the first
    ``terms_used`` reciprocals, ``tail_estimate`` approximates the rest from
    the growth rate lambda_k^j ~ (pi j / T)^2 with T the Liouville length,
    and ``deviation`` is |partial_sum + tail_estimate - 1/k|.
    """

    k: int
    terms_used: int
    partial_sum: float
    tail_estimate: float
    target: float
    deviation: float

    def to_json_dict(self):
        return {
            "k": self.k,
            "terms_used": self.terms_used,
            "partial_sum": self.partial_sum,
            "tail_estimate": self.tail_estimate,
            "target": self.target,
            "deviation": self.deviation,
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            k=int(data["k"]),
            terms_used=int(data["terms_used"]),
            partial_sum=data["partial_sum"],
            tail_estimate=data["tail_estimate"],
            target=data["target"],
            deviation=data["deviation"],
        )


@dataclass(frozen=True)
class EigenfunctionSamples:
    """Samples of one mode eigenfunction on the ``grid_used``-cell sample
    grid, with unit discrete L2 norm."""

    k: int
    j: int
    x: tuple
    values: tuple
    eigenvalue: float
    grid_used: int


def solver_grid(n: int):
    """Cell centers and spacing of the n-cell sample grid on [-1, 1]."""
    h = 2.0 / n
    return -1.0 + h * (np.arange(n) + 0.5), h


def _jacobi_rows(n, k, x, scale):
    """scale * P_j^(k,k)(x) and scale * P_j^(k,k)'(x) for j < n, orthonormal.

    The three-term recurrence is linear, so it runs on the scaled values
    directly; a scale that cancels the growth of P_j^(k,k) toward the poles
    keeps every entry finite for any k.
    """
    j = np.arange(n, dtype=float)
    b = np.sqrt(j * (j + 2 * k) / ((2 * j + 2 * k + 1) * (2 * j + 2 * k - 1)))  # b[0] = 0
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))
    # Row 0 holds P_(-1) = 0, so one update covers every degree.
    val = np.zeros((n + 1, x.size))
    der = np.zeros((n + 1, x.size))
    val[1] = scale / math.sqrt(mu0)
    for i in range(n - 1):
        val[i + 2] = (x * val[i + 1] - b[i] * val[i]) / b[i + 1]
        der[i + 2] = (val[i + 1] + x * der[i + 1] - b[i] * der[i]) / b[i + 1]
    return val[1:], der[1:]


def _galerkin_matrices(p: MetricProfile, k: int, n: int):
    """Stiffness and mass matrices of mode k in the n-term Jacobi basis.

    With H_j = w^((k-1)/2) P_j and G_j = w^((k-1)/2) (w P_j' - k x P_j), the
    forms are sum(q G G) + k^2 sum(H H / q) and sum(w H H) over the
    quadrature, accumulated block by block over the nodes.
    """
    t, c = roots_legendre(n + k + _EXTRA_NODES)
    a, b = np.asarray(p.breaks[:-1])[:, None], np.asarray(p.breaks[1:])[:, None]
    x = (0.5 * (a + b) + 0.5 * (b - a) * t).ravel()
    wts = (0.5 * (b - a) * c).ravel()
    w = (1.0 - x) * (1.0 + x)
    f = np.asarray(p.f(x), dtype=float)
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        raise DomainError("profile must be positive on (-1, 1) to assemble a mode operator")
    q = f / w
    stiff = np.zeros((n, n))
    mass = np.zeros((n, n))
    block = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, x.size, block):
        sl = slice(lo, lo + block)
        xb, wb, qb, cb = x[sl], w[sl], q[sl], wts[sl]
        h, d = _jacobi_rows(n, k, xb, wb ** (0.5 * (k - 1)))
        g = wb * d - k * xb * h
        stiff += (g * (cb * qb)) @ g.T
        if k:
            stiff += (k * k) * ((h * (cb / qb)) @ h.T)
        mass += (h * (cb * wb)) @ h.T
    return stiff, mass


def eigenvalues(p: MetricProfile, k: int, count: int, cfg: SolverConfig = DEFAULT_SOLVER) -> SLSpectrumSlice:
    """First ``count`` eigenvalues of the mode-k operator.

    Negative k is folded to |k| (conjugate modes have equal spectra). The
    basis size doubles from max(16, count + 8) until two sizes agree within
    rel_tol * max(|lambda|, 1) for every eigenvalue or the next size would
    pass n_max; in the latter case the largest-basis slice is returned
    flagged unconverged rather than raising. A slice from a single basis
    size has infinite error estimates.
    """
    k = abs(int(k))
    count = int(count)
    if count < 1:
        raise DomainError("count must be >= 1")
    n = max(_MIN_BASIS, count + _BASIS_MARGIN)
    if n > cfg.n_max:
        raise DomainError(f"count={count} needs a basis larger than n_max={cfg.n_max}")

    prev = None
    err = np.full(count, np.inf)
    while True:
        stiff, mass = _galerkin_matrices(p, k, n)
        values = eigh(stiff, mass, eigvals_only=True)[:count]
        scale = np.maximum(np.abs(values), 1.0)
        if prev is not None:
            raw = np.abs(values - prev)
            err = np.maximum(raw, _ERROR_FLOOR * scale)
            if np.all(raw <= cfg.rel_tol * scale):
                break
        if 2 * n > cfg.n_max:
            break
        prev = values
        n *= 2

    return SLSpectrumSlice(
        k=k,
        eigenvalues=tuple(float(v) for v in values),
        error_estimates=tuple(float(e) for e in err),
        grid_used=n,
        converged=bool(np.all(err <= cfg.rel_tol * scale)),
    )


def first_eigenvalue(p: MetricProfile, k: int, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Lowest eigenvalue of the mode-k operator (0 for k = 0)."""
    return eigenvalues(p, k, 1, cfg).eigenvalues[0]


def trace_check(p: MetricProfile, k: int, terms: int, cfg: SolverConfig = DEFAULT_SOLVER) -> TraceReport:
    """Check the reciprocal-eigenvalue identity sum_j 1/lambda_k^j = 1/|k|.

    Defined for k != 0 only. The slice comes from one solve at basis size
    1.25 * terms + 8, which must not exceed n_max, rather than a convergence
    chase: the reciprocal sum is dominated by the low eigenvalues, which that
    size resolves to near roundoff, and the deviation budget is dominated by
    the 1/terms tail anyway.
    """
    k = abs(int(k))
    if k == 0:
        raise DomainError("the reciprocal-eigenvalue identity is defined for k != 0 only")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    n = int(1.25 * terms) + _BASIS_MARGIN
    if n > cfg.n_max:
        raise DomainError(f"terms={terms} needs a basis larger than n_max={cfg.n_max}")

    stiff, mass = _galerkin_matrices(p, k, n)
    lam = eigh(stiff, mass, eigvals_only=True)[:terms]
    if np.any(lam <= 0.0):
        raise DomainError("mode eigenvalues must be positive to sum reciprocals")
    partial = float(np.sum(1.0 / lam))
    length = liouville_length(p, QuadratureConfig())
    tail = (length / math.pi) ** 2 / terms
    target = 1.0 / k
    return TraceReport(
        k=k,
        terms_used=terms,
        partial_sum=partial,
        tail_estimate=tail,
        target=target,
        deviation=abs(partial + tail - target),
    )


def eigenfunction(p: MetricProfile, k: int, j: int, cfg: SolverConfig = DEFAULT_SOLVER) -> EigenfunctionSamples:
    """Samples of the j-th eigenfunction of mode k on the 256-cell sample grid.

    The Ritz vector comes from the basis size at which ``eigenvalues``
    settles. Samples are normalized to unit discrete L2 norm
    (sqrt(h * sum u_i^2) = 1) with the sign fixed so the first nonzero
    sample from the left is positive.
    """
    k = abs(int(k))
    if j < 1:
        raise DomainError("eigenfunction index j must be >= 1")
    slc = eigenvalues(p, k, j, cfg)
    n = slc.grid_used
    stiff, mass = _galerkin_matrices(p, k, n)
    vec = eigh(stiff, mass)[1][:, j - 1]
    nodes, h = solver_grid(_SAMPLE_CELLS)
    rows, _ = _jacobi_rows(n, k, nodes, ((1.0 - nodes) * (1.0 + nodes)) ** (0.5 * k))
    u = vec @ rows
    u = u / (math.sqrt(h) * float(np.linalg.norm(u)))
    nz = np.flatnonzero(np.abs(u) > 1e-8 * float(np.max(np.abs(u))))
    if nz.size and u[nz[0]] < 0.0:
        u = -u
    return EigenfunctionSamples(
        k=k,
        j=j,
        x=tuple(float(v) for v in nodes),
        values=tuple(float(v) for v in u),
        eigenvalue=slc.eigenvalues[j - 1],
        grid_used=_SAMPLE_CELLS,
    )
