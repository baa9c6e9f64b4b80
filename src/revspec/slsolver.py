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
the profile's ``even`` flag, which profile decides once, from its tables:
one piece with no odd powers in N or D, so f and q are even bit for bit.
Every other profile keeps the whole matrix, mirror-symmetric splines and
profiles even only to roundoff included. The solver never evaluates f: it
reads q = f/w from the profile's own table (profile module docstring),
which stays exact to rounding up to the poles, where f/w at a node loses
digits in proportion to 1/w.

The basis size starts at 2 max(16, count + 8) (at max(16, count + 8) if
that passes n_max) and doubles until a size agrees with its own leading
half within rel_tol. The bases are nested and the rule for size n
integrates the mass form of every smaller basis to roundoff, so the rows
and columns of the leading n/2 basis functions in the size-n stiffness (of
a split profile, the first ceil(n/4) of the even block and floor(n/4) of
the odd one) are a size-n/2 Ritz matrix whose mass matrix is still I (on a
finer rule than an assembly at n/2 would use). Each size is therefore one
assembly, and its error estimate is the difference of its Ritz values from
those of its leading half, floored at 1e-10 relative: below that both sit
at roundoff and the difference stops bounding the error, so rel_tol may
not be smaller. Smooth profiles converge spectrally, splines
algebraically.

One ladder (_converge) serves every convergence chase. It runs a set of
modes through the same basis sizes, and after each size asks its caller how
many values each mode must settle: ``eigenvalues`` runs one mode for a
fixed count, ``spectrum.assemble_spectrum`` all the modes of a spectrum for
counts read off the ceiling the ladder is still converging (spectrum module
docstring). One solve is outside it: ``trace_checks`` makes one stack at a
fixed size. At each size every mode still open is assembled in one stack,
on the rule of its largest k, which gives every smaller mode at least as
many nodes per piece as its own rule, so a mode's values move by roundoff
only against its lone assembly (under 1e-13 relative on the benchmark's
profiles). A stack of M modes is one (M, s, s) array per stiffness block: q
is evaluated once per size, the recurrence takes its N steps once per node
block for all modes, each node block adds one batched rank update per
block, and one eigensolve per block gives every mode's Ritz values, one
more those of its leading half. Each mode is judged on its own and leaves
the ladder once its slice is converged. Node blocks shrink to
_BLOCK_NODES // M for M modes, so a stack's row buffer holds no more than
a one-mode assembly's 2 N _BLOCK_NODES doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .profile import MetricProfile, liouville_length
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, piecewise_rule
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
#: 2 N * _BLOCK_NODES entries, so assembly memory stays O(N^2). A stack of M
#: modes takes blocks of _BLOCK_NODES // M nodes, so its rows hold no more.
_BLOCK_NODES = 512


@dataclass(frozen=True)
class SolverConfig:
    """Basis-size policy for the mode solver: tolerance and cap on N."""

    n_max: int = 1024
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.n_max < _MIN_BASIS:
            raise ValueError(f"n_max must be >= {_MIN_BASIS}")
        if not (self.rel_tol >= _ERROR_FLOOR):
            raise ValueError(f"rel_tol must be at least {_ERROR_FLOOR:g}, the floor of the error estimates")


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
    ``terms_used`` reciprocals, ``tail_estimate`` sums the rest of the
    Bessel-type asymptotics lambda_k^j ~ (pi / T)^2 (j + k - 1/2)^2, T the
    Liouville length, as (T / pi)^2 psi'(terms_used + k + 1/2), and
    ``deviation`` is |partial_sum + tail_estimate - 1/k|.
    ``remainder_estimate`` is the size of what that tail leaves out, taken
    from the next asymptotic term, a constant over lambda_k^j squared:
    2 C (T / pi)^4 / (3 (terms_used + k)^3), C the largest
    |lambda_k^j - (pi / T)^2 (j + k - 1/2)^2| for terms_used/2 < j <= terms_used.
    It is a magnitude, so no cancellation within the sum can shrink it.
    """

    k: int
    terms_used: int
    partial_sum: float
    tail_estimate: float
    target: float
    deviation: float
    remainder_estimate: float


def _jacobi_rows(n, ks, x, scale):
    """scale * P_j^(k,k)(x) for j < n and each mode k of the stack ``ks``.

    An (n, len(ks), x.size) array, orthonormal under the weight w^k; scale
    holds one row per mode. The three-term recurrence is linear, so it runs
    on the scaled values directly; a scale that cancels the growth of
    P_j^(k,k) toward the poles keeps every entry finite for any k. Its n
    Python-level steps advance every mode at once and write in place,
    through row views made once.
    """
    j = np.arange(n, dtype=float)[:, None]
    k2 = 2.0 * np.asarray(ks, dtype=float)
    b = np.sqrt(j * (j + k2) / ((2 * j + k2 + 1) * (2 * j + k2 - 1)))  # b[0] = 0
    root_mu0 = np.array([[math.sqrt(math.sqrt(math.pi) * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5)))]
                         for k in ks])
    # The modes' rows sit side by side in one flat row per degree, and every
    # operand of a step is such a flat row or a number: numpy's broadcasting
    # costs more per call than these small rows do. A lone mode keeps b as n
    # numbers where a stack repeats it into an n x x.size array: about 1 MB
    # at trace's N = 258 on a 512-node block, 0.7-1.1 MB of the trace-series
    # benchmark's peak RSS.
    if len(ks) == 1:
        b = b[:, 0].tolist()
    else:
        b, x = list(np.repeat(b, x.size, axis=1)), np.tile(x, len(ks))
    # Row 0 holds P_(-1) = 0, so one update covers every degree.
    val = np.zeros((n + 1, x.size))
    np.divide(scale, root_mu0, out=val[1].reshape(scale.shape))
    row = list(val)
    tmp = np.empty(x.size)
    for i in range(n - 1):
        nxt = np.multiply(x, row[i + 1], out=row[i + 2])
        nxt -= np.multiply(b[i], row[i], out=tmp)
        nxt /= b[i + 1]
    return val[1:].reshape(n, len(ks), -1)


def _rule(breaks, n, k):
    """Assembly nodes and weights: the node count this solver needs, laid
    onto every piece by ``quadrature.piecewise_rule``.

    A piece spanning an angle dtheta needs about (n + k) dtheta / 2 nodes
    for the integrands of mode k in the n-term basis (module docstring).
    Every piece gets the widest piece's count,
    min(n + k, ceil(_ANGULAR_NODES (n + k) dtheta_max)) + _EXTRA_NODES, so
    one reference rule serves them all; a single piece spans pi and keeps
    n + k + _EXTRA_NODES.
    """
    ends = np.asarray(breaks, dtype=float)
    widest = float((np.arccos(ends[:-1]) - np.arccos(ends[1:])).max())
    return piecewise_rule(ends, min(n + k, math.ceil(_ANGULAR_NODES * (n + k) * widest)) + _EXTRA_NODES)


def _even_half(x, wts):
    """The rule folded onto its upper half, for an even profile: the upper
    half of the nodes, with the weights doubled; the middle node of an
    odd-sized rule sits at 0 (to roundoff) and keeps its own weight."""
    upper = x.size // 2
    ch = 2.0 * wts[upper:]
    if x.size % 2:
        ch[0] = wts[upper]
    return x[upper:], ch


def _block_sizes(n, parts):
    """Sizes of the blocks that split basis indices j < n by j mod parts."""
    return [len(range(b, n, parts)) for b in range(parts)]


def _stiffness(p: MetricProfile, ks, n: int):
    """Stiffness blocks of the stack of modes ``ks`` in the n-term basis.

    One (M, s_b, s_b) array per block b of B, M = len(ks): entry i holds
    the rows and columns j = b, b + B, ... of mode ks[i]'s stiffness matrix.
    An even profile (``p.even``) gives two blocks, even and odd j, assembled
    on the rule folded by _even_half; any other profile one, the whole
    matrix. The integrands read the profile only through ``p.q``, evaluated
    once per assembly at the nodes assembled, and q must be positive and
    finite there. Every mode is integrated by the rule of the stack's
    largest k, which gives each smaller mode at least as many nodes per
    piece as its own rule would.

    With H_j = w^((k-1)/2) P_j and G_j = w^((k-1)/2) (w P_j' - k x P_j), the
    form is sum(q G G) + k^2 sum(H H / q) over the quadrature. The Gegenbauer
    identity w P_j' = -j x P_j + (2j+2k+1) b_j P_(j-1) gives G from the value
    rows R = [G sqrt(c q), k H sqrt(c / q)], (M, n, 2m) on m nodes, written
    into one buffer per solve; each node block adds one batched rank update
    R_b R_b^T per block, R_b the rows of block b, through one more buffer.
    Mode 0's k H half is zero, so a lone mode-0 solve multiplies G alone.
    A stack of M modes takes node blocks of _BLOCK_NODES // M, so the row
    buffer never holds more than the 2 n _BLOCK_NODES doubles of a one-mode
    assembly.
    """
    x, wts = _rule(p.breaks, n, max(ks))
    parts = 1
    if p.even:
        (x, wts), parts = _even_half(x, wts), 2
    q = np.asarray(p.q(x), dtype=float)
    if not ((q > 0.0).all() and np.isfinite(q).all()):
        raise DomainError("profile must be positive on (-1, 1) to assemble a mode operator")
    w = (1.0 - x) * (1.0 + x)
    kk = np.asarray(ks, dtype=float)[:, None, None]
    j = np.arange(n, dtype=float)[:, None]
    xcoef = -(j + kk)  # w P_j' - k x P_j = -(j + k) x P_j + (2j+2k+1) b_j P_(j-1)
    t = 2 * j + 2 * kk
    sub = np.sqrt(j * (j + 2 * kk) * (t + 1) / (t - 1))[:, 1:]  # (2j+2k+1) b_j
    # one scalar power per mode: numpy takes w ** 0.5 and w ** 2 as sqrt and
    # square, where an array of exponents goes through pow, an ulp off
    scale = np.array([w ** (0.5 * (k - 1)) for k in ks])
    root_cq, root_c_q = np.sqrt(wts * q), kk * np.sqrt(wts / q)
    block = min(max(1, _BLOCK_NODES // len(ks)), x.size)
    rows = np.empty((len(ks), n, 2 * block))
    stiff = tuple(np.zeros((len(ks), s, s)) for s in _block_sizes(n, parts))
    spare = np.empty(stiff[0].size)  # one product buffer for every block; block 0 is the largest
    for lo in range(0, x.size, block):
        sl = slice(lo, lo + block)
        xb = x[sl]
        m = xb.size
        h = _jacobi_rows(n, ks, xb, scale[:, sl]).transpose(1, 0, 2)
        g, hk = rows[:, :, :m], rows[:, :, m:2 * m]
        np.multiply(h, xb, out=g)
        g *= xcoef
        g[:, 1:] += np.multiply(sub, h[:, :-1], out=hk[:, 1:])  # hk is scratch until the next line
        g *= root_cq[sl]
        np.multiply(h, root_c_q[:, :, sl], out=hk)
        r = rows[:, :, :2 * m if max(ks) else m]
        for b, s in enumerate(stiff):
            rb = r[:, b::parts]
            # R_b @ R_b^T of each mode on one buffer: numpy computes each as a symmetric rank update
            s += np.matmul(rb, rb.transpose(0, 2, 1), out=spare[:s.size].reshape(s.shape))
    return stiff


def _leading(stack, n):
    """The stack's stiffness blocks of its leading n basis functions."""
    return tuple(s[:, :m, :m] for s, m in zip(stack, _block_sizes(n, len(stack))))


def _eig(stack):
    """Ritz values of each mode of a stack, ascending: one (M, n) array whose
    row i is the sorted union of mode i's block values (the mass matrix is
    I), from one eigensolve per block."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(s) for s in stack], axis=1), axis=1)


def _converge(p: MetricProfile, ks, n: int, cfg: SolverConfig, counts):
    """The doubling ladder of the modes ``ks`` from basis size n: each
    mode's slice, {k: slice}.

    The first size is 2n, whose leading half is size n, or n alone if 2n
    would pass n_max. At each size the modes still open are assembled in
    one stack, and each is judged against the stack's own leading half
    (_slice). After each size, ``counts`` maps the latest Ritz values of
    every mode of the ladder, {k: values} (a mode that has left keeps those
    of its last size), to the number of values each mode must settle. A
    mode leaves with its slice of that many values once the slice is
    converged; the modes left go on to the next size, until none is left or
    that size would pass n_max, where every mode left stops unconverged. A
    count that needs a basis larger than n_max raises DomainError, as in
    ``eigenvalues``.
    """
    latest, slices = {}, {}
    if 2 * n <= cfg.n_max:
        n *= 2
    active = tuple(ks)
    while True:
        stack = _stiffness(p, active, n)
        halves = _eig(_leading(stack, n // 2))
        latest.update(zip(active, _eig(stack)))
        del stack  # this size's blocks go before the next size's are assembled
        wanted = counts(latest)
        for k, half in zip(active, halves):
            if wanted[k] + _BASIS_MARGIN > cfg.n_max:
                raise DomainError(f"mode k={k}: count={wanted[k]} needs a basis larger than n_max={cfg.n_max}")
            slc = _slice(k, n, latest[k], half, wanted[k], cfg)
            if slc.converged or 2 * n > cfg.n_max:
                slices[k] = slc
        active = tuple(k for k in active if k not in slices)
        if not active:
            return slices
        n *= 2


def _slice(k: int, n: int, values, half, count: int, cfg: SolverConfig):
    """Mode k's slice of its first ``count`` size-n Ritz values, each value's
    estimate its distance from the value of the leading half (``half``, the
    size-n/2 Ritz values), floored at _ERROR_FLOOR relative. The slice is
    converged when it holds ``count`` values and every estimate is within
    rel_tol * max(|lambda|, 1), the ladder's one stopping rule; a value past
    the half has an infinite estimate."""
    values = values[:count]
    scale = np.maximum(np.abs(values), 1.0)
    err = np.full(values.size, np.inf)
    m = min(values.size, half.size)
    err[:m] = np.maximum(np.abs(values[:m] - half[:m]), _ERROR_FLOOR * scale[:m])
    return SLSpectrumSlice(
        k=k,
        eigenvalues=tuple(values.tolist()),
        error_estimates=tuple(err.tolist()),
        grid_used=n,
        converged=values.size == count and bool((err <= cfg.rel_tol * scale).all()),
    )


def eigenvalues(p: MetricProfile, k: int, count: int, cfg: SolverConfig = DEFAULT_SOLVER) -> SLSpectrumSlice:
    """First ``count`` eigenvalues of the mode-k operator.

    Negative k is folded to |k| (conjugate modes have equal spectra). The
    basis size doubles from 2n, n = max(16, count + 8), until the values of
    a size agree with those of its own leading half within
    rel_tol * max(|lambda|, 1) or the next size would pass n_max; in the
    latter case the largest-basis slice is returned flagged unconverged
    rather than raising. If 2n passes n_max, size n is the only one, and
    its values past its leading half have infinite error estimates. It is
    the one-mode, fixed-count case of the ladder (_converge).
    """
    k, count = abs(int(k)), int(count)
    if count < 1:
        raise DomainError("count must be >= 1")
    n = max(_MIN_BASIS, count + _BASIS_MARGIN)
    if n > cfg.n_max:
        raise DomainError(f"count={count} needs a basis larger than n_max={cfg.n_max}")
    return _converge(p, (k,), n, cfg, lambda latest: {k: count})[k]


def first_eigenvalue(p: MetricProfile, k: int, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Lowest eigenvalue of the mode-k operator (0 for k = 0)."""
    return eigenvalues(p, k, 1, cfg).eigenvalues[0]


def trigamma(z: float) -> float:
    """psi'(z), the derivative of the digamma function, for z > 0: the
    recurrence psi'(z) = psi'(z + 1) + 1/z^2 up to z >= 20, then the
    asymptotic series 1/z + 1/(2z^2) + 1/(6z^3) - 1/(30z^5) + 1/(42z^7)
    - 1/(30z^9) + 5/(66z^11), whose first omitted term is below 1e-16 of
    psi' there. The recurrence terms are added smallest first."""
    shifts = []
    while z < 20.0:
        shifts.append(1.0 / (z * z))
        z += 1.0
    s = 1.0 / (z * z)
    series = 1.0 / 6.0 - s * (1.0 / 30.0 - s * (1.0 / 42.0 - s * (1.0 / 30.0 - s * 5.0 / 66.0)))
    value = (1.0 + 0.5 / z + s * series) / z
    for term in reversed(shifts):
        value += term
    return value


def trace_checks(
    p: MetricProfile,
    ks,
    terms: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[TraceReport, ...]:
    """Check the reciprocal-eigenvalue identity sum_j 1/lambda_k^j = 1/|k|
    for each mode k of ``ks``, one report per mode.

    Defined for k != 0 only. The slices come from one stacked assembly at basis
    size 1.25 * terms + 8, which must not exceed n_max, rather than a
    convergence chase: the reciprocal sum is dominated by the low
    eigenvalues, which that size resolves to near roundoff. Near each pole
    mode k behaves like a Bessel function of order k, so
    lambda_k^j = (pi / T)^2 (j + k - 1/2)^2 + O(1) (Langer, Phys. Rev. 51,
    1937; Guillot and Ralston, J. Differential Equations 76, 1988), and the
    reciprocals past ``terms`` sum to (T / pi)^2 psi'(terms + k + 1/2) up
    to a remainder of order terms^-3, whose constant is read off the upper
    half of the computed values (TraceReport). At 50 terms that estimate
    is below 5e-5 on the fixtures and the benchmark's generated profiles,
    and the deviation about half of it. The tail's Liouville length is
    integrated once, within q.
    """
    ks = tuple(abs(int(k)) for k in ks)
    if 0 in ks:
        raise DomainError("the reciprocal-eigenvalue identity is defined for k != 0 only")
    if terms < 1:
        raise DomainError("terms must be >= 1")
    n = int(1.25 * terms) + _BASIS_MARGIN
    if n > cfg.n_max:
        raise DomainError(f"terms={terms} needs a basis larger than n_max={cfg.n_max}")

    lams = _eig(_stiffness(p, ks, n))[:, :terms]
    if np.any(lams <= 0.0):
        raise DomainError("mode eigenvalues must be positive to sum reciprocals")
    scale = (liouville_length(p, q) / math.pi) ** 2
    upper = np.arange(terms // 2 + 1, terms + 1, dtype=float)
    reports = []
    for k, lam in zip(ks, lams):
        partial = float(np.sum(1.0 / lam))
        tail = scale * trigamma(terms + k + 0.5)
        constant = float(np.max(np.abs(lam[terms // 2:] - (upper + k - 0.5) ** 2 / scale)))
        target = 1.0 / k
        reports.append(TraceReport(
            k=k,
            terms_used=terms,
            partial_sum=partial,
            tail_estimate=tail,
            target=target,
            deviation=abs(partial + tail - target),
            remainder_estimate=2.0 * constant * scale ** 2 / (3.0 * (terms + k) ** 3),
        ))
    return tuple(reports)


def trace_check(
    p: MetricProfile,
    k: int,
    terms: int,
    cfg: SolverConfig = DEFAULT_SOLVER,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
) -> TraceReport:
    """The reciprocal-eigenvalue identity of one mode: trace_checks on (k,)."""
    return trace_checks(p, (k,), terms, cfg, q)[0]

