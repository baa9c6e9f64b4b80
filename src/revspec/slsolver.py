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

integrated by one Gauss-Legendre rule on each of the profile's smooth
pieces (MetricProfile.breaks). The polynomial part of each integrand has
degree below 2 (N + k) in x = cos(theta), so it is a trigonometric
polynomial of that degree in theta, and on a piece spanning an angle dtheta
the Gauss error bound on the piece's Bernstein ellipse decays geometrically
once the piece has more than about (N + k) dtheta / 2 nodes (Trefethen,
SIAM Review 50, 2008). Each piece therefore gets
min(N + k, ceil(0.6 (N + k) dtheta_max)) + 24 nodes, dtheta_max the widest
piece's angle (_rule): N + k + 24 on a single piece (dtheta = pi), which is
exact for every polynomial factor, and about a fifth of that on a 25-knot
spline. The basis is orthonormal under the mass form, so its matrix is the
identity to roundoff (2.1e-13 at N <= 1024 on splines) and is never formed:
a standard symmetric eigensolve of the stiffness matrix (numpy.linalg)
gives the Ritz values. The stiffness matrix is summed over blocks of 512
quadrature nodes, one symmetric rank update each. The paper's trial
functions f^(m/2) are a one-term Ritz space of this kind, and on the round
sphere the basis holds the exact eigenfunctions.

A profile symmetric under the reflection x -> -x (the round sphere and the
paper's example) is solved as two half-size blocks. P_j^(k,k) has parity
(-1)^j, so H_j = w^((k-1)/2) P_j has parity (-1)^j and
G_j = w^((k-1)/2) (w P_j' - k x P_j) the opposite one; on an even f both
integrands of entry (i, j) then have parity (-1)^(i+j), and every entry
with i + j odd vanishes: L_k commutes with the reflection, and the even-j
and odd-j basis functions never couple. The two blocks are assembled on the
rule folded onto its upper half, weights doubled (the middle node of an
odd-sized rule sits at 0 and keeps its own weight), and the Ritz values are
the sorted union of theirs. That takes about a quarter of the flops of the
whole matrix in assembly and in the eigensolve, and drops the cross-parity
entries that the whole matrix carries as roundoff. The split is read off
the profile: its breaks must be mirror-symmetric and f at the upper-half
nodes must equal f at their negatives bit for bit, so a profile that is
even only to roundoff keeps the whole matrix, as before.

The basis size doubles from max(16, count + 8) until two sizes agree within
rel_tol. The error estimate is that difference, floored at 1e-10 relative:
below that both sizes sit at roundoff and the difference stops bounding the
error. Smooth profiles converge spectrally, splines algebraically. The
bases are nested and the rule for size 2n integrates the mass form of every
smaller basis to roundoff, so the rows and columns of the leading n basis
functions in the size-2n stiffness (of a split profile, the first ceil(n/2)
of the even block and floor(n/2) of the odd one) are a size-n Ritz matrix
whose mass matrix is still I (on a finer rule than an assembly at n would
use). The first pair of sizes therefore costs one assembly, at 2n; only
4n, 8n, ... are assembled afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .profile import MetricProfile, liouville_length
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, gauss_legendre
from .report import Report

_MIN_BASIS = 16
#: Basis functions kept beyond the eigenvalues asked for.
_BASIS_MARGIN = 8
#: Relative floor of the reported error estimates (see module docstring).
_ERROR_FLOOR = 1e-10
#: Gauss nodes per smooth piece, per unit of N + k and radian of the widest
#: piece's angle (see _rule). At 0.5 the Bernstein-ellipse bound stops
#: decaying and only _EXTRA_NODES carry the rule (at 0.45 |M - I| reached
#: 1e-3 on a uniform 25-knot spline); at 0.6 it stays at or below 2.1e-13
#: on 25- to 97-knot splines (N <= 1024, k <= 40).
_ANGULAR_NODES = 0.6
#: Gauss nodes per smooth piece beyond those the polynomial factors need, for
#: the non-polynomial factors q and 1/q.
_EXTRA_NODES = 24
#: Quadrature nodes per assembly block, one rank update each. The recurrence
#: takes N Python-level steps per block, so wide blocks keep those steps few
#: (a single-piece profile is one block up to N + k = 488, a 25-knot spline
#: at N = 258, k = 3 spans about three); a block's rows hold
#: 2 N * _BLOCK_NODES entries, so assembly memory stays O(N^2).
_BLOCK_NODES = 512
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
class SLSpectrumSlice(Report):
    """The lowest eigenvalues of one mode operator, with error estimates.

    ``eigenvalues`` is strictly increasing (the mode spectra are simple);
    ``error_estimates`` are absolute, per eigenvalue. ``grid_used`` is the
    final basis size N; ``converged`` records whether every estimate met
    rel_tol before the basis cap.
    """

    k: int
    eigenvalues: tuple[float, ...]
    error_estimates: tuple[float, ...]
    grid_used: int
    converged: bool


@dataclass(frozen=True)
class TraceReport(Report):
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
    """scale * P_j^(k,k)(x) for j < n, orthonormal under the weight w^k.

    The three-term recurrence is linear, so it runs on the scaled values
    directly; a scale that cancels the growth of P_j^(k,k) toward the poles
    keeps every entry finite for any k. Its n Python-level steps write in
    place, through row views made once.
    """
    j = np.arange(n, dtype=float)
    b = np.sqrt(j * (j + 2 * k) / ((2 * j + 2 * k + 1) * (2 * j + 2 * k - 1))).tolist()  # b[0] = 0
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))
    # Row 0 holds P_(-1) = 0, so one update covers every degree.
    val = np.zeros((n + 1, x.size))
    val[1] = scale / math.sqrt(mu0)
    row = list(val)
    tmp = np.empty(x.size)
    for i in range(n - 1):
        nxt = np.multiply(x, row[i + 1], out=row[i + 2])
        nxt -= np.multiply(b[i], row[i], out=tmp)
        nxt /= b[i + 1]
    return val[1:]


def _rule(breaks, n, k):
    """Assembly nodes and weights: one Gauss-Legendre rule on every piece.

    A piece spanning an angle dtheta needs about (n + k) dtheta / 2 nodes
    for the integrands of mode k in the n-term basis (module docstring), and
    one count for all pieces keeps one cached rule. Every piece gets
    min(n + k, ceil(_ANGULAR_NODES (n + k) dtheta_max)) + _EXTRA_NODES
    nodes, dtheta_max the widest piece's angle; a single piece spans pi and
    keeps n + k + _EXTRA_NODES.
    """
    ends = np.asarray(breaks, dtype=float)
    widest = float(np.max(np.arccos(ends[:-1]) - np.arccos(ends[1:])))
    t, c = gauss_legendre(min(n + k, math.ceil(_ANGULAR_NODES * (n + k) * widest)) + _EXTRA_NODES)
    a, b = ends[:-1, None], ends[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * t).ravel(), (0.5 * (b - a) * c).ravel()


def _even_half(p: MetricProfile, x, f, wts):
    """The rule folded onto its upper half when the profile is even, else None.

    Even means mirror-symmetric breaks and f(-x) == f(x) bit for bit at the
    upper half of the nodes. The folded rule is that half, (x, f, weights)
    with the weights doubled; the middle node of an odd-sized rule sits at
    0 (to roundoff) and keeps its own weight.
    """
    ends = np.asarray(p.breaks, dtype=float)
    if not np.array_equal(ends, -ends[::-1]):
        return None
    upper = x.size // 2
    if not np.array_equal(np.asarray(p.f(-x[upper:]), dtype=float), f[upper:]):
        return None
    ch = 2.0 * wts[upper:]
    if x.size % 2:
        ch[0] = wts[upper]
    return x[upper:], f[upper:], ch


def _block_sizes(n, parts):
    """Sizes of the blocks that split basis indices j < n by j mod parts."""
    return [len(range(b, n, parts)) for b in range(parts)]


def _stiffness(p: MetricProfile, k: int, n: int):
    """Stiffness blocks of mode k in the n-term Jacobi basis.

    A tuple of independent blocks: block b of B holds the rows and columns
    j = b, b + B, ... of the stiffness matrix. An even profile (_even_half)
    gives two, even and odd j, assembled on the folded rule; any other
    profile one, the whole matrix.

    With H_j = w^((k-1)/2) P_j and G_j = w^((k-1)/2) (w P_j' - k x P_j), the
    form is sum(q G G) + k^2 sum(H H / q) over the quadrature. The Gegenbauer
    identity w P_j' = -j x P_j + (2j+2k+1) b_j P_(j-1) gives G from the value
    rows, and each node block adds one rank update R_b R_b^T per stiffness
    block with R = [G sqrt(c q), k H sqrt(c / q)] and R_b its rows of block
    b, written into one buffer per solve.
    """
    x, wts = _rule(p.breaks, n, k)
    f = np.asarray(p.f(x), dtype=float)
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        raise DomainError("profile must be positive on (-1, 1) to assemble a mode operator")
    half = _even_half(p, x, f, wts)
    parts = 1
    if half is not None:
        (x, f, wts), parts = half, 2
    w = (1.0 - x) * (1.0 + x)
    q = f / w
    j = np.arange(n, dtype=float)[:, None]
    sub = np.sqrt(j * (j + 2 * k) * (2 * j + 2 * k + 1) / (2 * j + 2 * k - 1))[1:]  # (2j+2k+1) b_j
    block = min(_BLOCK_NODES, x.size)
    rows = np.empty((n, 2 * block if k else block))
    stiff = [np.zeros((s, s)) for s in _block_sizes(n, parts)]
    update = [np.empty_like(s) for s in stiff]
    for lo in range(0, x.size, block):
        sl = slice(lo, lo + block)
        xb, qb, cb = x[sl], q[sl], wts[sl]
        m = xb.size
        h = _jacobi_rows(n, k, xb, w[sl] ** (0.5 * (k - 1)))
        g = rows[:, :m]
        np.multiply(h, xb, out=g)
        g *= -(j + k)
        g[1:] += sub * h[:-1]
        g *= np.sqrt(cb * qb)
        if k:
            np.multiply(h, k * np.sqrt(cb / qb), out=rows[:, m:2 * m])
        r = rows[:, :2 * m if k else m]
        for b in range(parts):
            rb = r[b::parts]
            # R_b @ R_b.T on one buffer: numpy computes it as a symmetric rank update
            np.matmul(rb, rb.T, out=update[b])
            stiff[b] += update[b]
    return tuple(stiff)


def _leading(blocks, n):
    """The stiffness blocks of the leading n basis functions."""
    return tuple(s[:m, :m] for s, m in zip(blocks, _block_sizes(n, len(blocks))))


def _eig(blocks, vectors):
    """Ritz values of stiffness blocks, ascending: the sorted union of each
    block's (the mass matrix is I). With ``vectors`` also their coefficient
    vectors in the full basis, each block's scattered back to its rows
    (else None)."""
    parts = len(blocks)
    if not vectors:
        return np.sort(np.concatenate([np.linalg.eigvalsh(s) for s in blocks])), None
    n = sum(len(s) for s in blocks)
    values, vecs, col = np.empty(n), np.zeros((n, n)), 0
    for b, s in enumerate(blocks):
        v, u = np.linalg.eigh(s)
        values[col:col + v.size] = v
        vecs[b::parts, col:col + v.size] = u
        col += v.size
    order = np.argsort(values, kind="stable")
    return values[order], vecs[:, order]


def _ritz(p: MetricProfile, k: int, n: int):
    """Ritz values of mode k in the n-term basis, ascending."""
    return _eig(_stiffness(p, k, n), False)[0]


def _converge(p: MetricProfile, k: int, count: int, cfg: SolverConfig, vectors: bool = False):
    """The doubling ladder behind ``eigenvalues``: the slice, and the Ritz
    vectors of its final solve when ``vectors`` is set (else None)."""
    k = abs(int(k))
    count = int(count)
    if count < 1:
        raise DomainError("count must be >= 1")
    n = max(_MIN_BASIS, count + _BASIS_MARGIN)
    if n > cfg.n_max:
        raise DomainError(f"count={count} needs a basis larger than n_max={cfg.n_max}")

    prev = None
    if 2 * n <= cfg.n_max:
        # The bases are nested, so the first pair of sizes costs one assembly:
        # the leading n basis functions of the 2n stiffness give a size-n
        # Ritz matrix.
        stiff = _stiffness(p, k, 2 * n)
        prev = _eig(_leading(stiff, n), False)[0][:count]
        n *= 2
    else:
        stiff = _stiffness(p, k, n)
    err = np.full(count, np.inf)
    while True:
        values, vecs = _eig(stiff, vectors)
        values = values[:count]
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
        stiff = _stiffness(p, k, n)

    return SLSpectrumSlice(
        k=k,
        eigenvalues=tuple(float(v) for v in values),
        error_estimates=tuple(float(e) for e in err),
        grid_used=n,
        converged=bool(np.all(err <= cfg.rel_tol * scale)),
    ), vecs


def eigenvalues(p: MetricProfile, k: int, count: int, cfg: SolverConfig = DEFAULT_SOLVER) -> SLSpectrumSlice:
    """First ``count`` eigenvalues of the mode-k operator.

    Negative k is folded to |k| (conjugate modes have equal spectra). The
    basis size doubles from n = max(16, count + 8) until two sizes agree
    within rel_tol * max(|lambda|, 1) for every eigenvalue or the next size
    would pass n_max; in the latter case the largest-basis slice is returned
    flagged unconverged rather than raising. Sizes n and 2n come from one
    assembly at 2n (see the module docstring). A slice from a single basis
    size (2n > n_max) has infinite error estimates.
    """
    return _converge(p, k, count, cfg)[0]


def first_eigenvalue(p: MetricProfile, k: int, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Lowest eigenvalue of the mode-k operator (0 for k = 0)."""
    return eigenvalues(p, k, 1, cfg).eigenvalues[0]


def trace_check(
    p: MetricProfile,
    k: int,
    terms: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> TraceReport:
    """Check the reciprocal-eigenvalue identity sum_j 1/lambda_k^j = 1/|k|.

    Defined for k != 0 only. The slice comes from one solve at basis size
    1.25 * terms + 8, which must not exceed n_max, rather than a convergence
    chase: the reciprocal sum is dominated by the low eigenvalues, which that
    size resolves to near roundoff, and the deviation budget is dominated by
    the 1/terms tail anyway. The tail's Liouville length is integrated
    within q.
    """
    k = abs(int(k))
    if k == 0:
        raise DomainError("the reciprocal-eigenvalue identity is defined for k != 0 only")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    n = int(1.25 * terms) + _BASIS_MARGIN
    if n > cfg.n_max:
        raise DomainError(f"terms={terms} needs a basis larger than n_max={cfg.n_max}")

    lam = _ritz(p, k, n)[:terms]
    if np.any(lam <= 0.0):
        raise DomainError("mode eigenvalues must be positive to sum reciprocals")
    partial = float(np.sum(1.0 / lam))
    length = liouville_length(p, q)
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

    The Ritz vector comes from the final solve of the ``eigenvalues`` ladder.
    Samples are normalized to unit discrete L2 norm (sqrt(h * sum u_i^2) = 1)
    with the sign fixed so the first nonzero sample from the left is positive.
    """
    k = abs(int(k))
    if j < 1:
        raise DomainError("eigenfunction index j must be >= 1")
    slc, vecs = _converge(p, k, j, cfg, vectors=True)
    nodes, h = solver_grid(_SAMPLE_CELLS)
    rows = _jacobi_rows(slc.grid_used, k, nodes, ((1.0 - nodes) * (1.0 + nodes)) ** (0.5 * k))
    u = vecs[:, j - 1] @ rows
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
