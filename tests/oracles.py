"""Independent oracles for validating the package's solvers.

None of this shares code with revspec: the closed-form round-sphere spectrum
comes from classical special-function theory, and the finite-difference
oracles use a vertex-centered grid with explicitly imposed boundary
conditions, while the package solver is Jacobi-Galerkin Rayleigh-Ritz with
the pole factor (1 - x^2)^(k/2) in its basis and no boundary condition. The
two discretizations agree only if both converge to the true spectrum. The
Sturm-oscillation count solves the mode equation as an initial-value
problem in t = artanh x and reads eigenvalue counts off the zeros of its
solution, with no basis and no matrix.
"""

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


def sphere_mode_eigenvalue(k, j):
    """Closed-form round-sphere eigenvalue for mode k, index j >= 1.

    The mode-k operator of f = 1 - x^2 is the associated Legendre equation;
    its j-th eigenvalue is l(l+1) with degree l = k + j - 1.
    """
    l = k + j - 1
    return float(l * (l + 1))


def dirichlet_fd_eigenvalues(f, k, count, n):
    """Vertex-centered FD with explicit zero boundary values, k >= 1."""
    h = 2.0 / (n + 1)
    nodes = -1.0 + h * np.arange(1, n + 1)
    mids = -1.0 + h * (np.arange(0, n + 1) + 0.5)
    fm = f(mids)
    diag = (fm[:-1] + fm[1:]) / h**2 + k * k / f(nodes)
    off = -fm[1:-1] / h**2
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


def natural_fd_eigenvalues(f, count, n):
    """Vertex-centered FD including the endpoints, no-flux boundary, k = 0.

    Half cells at the boundary give a diagonal mass matrix; the generalized
    problem is symmetrized with D^(-1/2) so a tridiagonal solver applies.
    """
    h = 2.0 / n
    mids = -1.0 + h * (np.arange(0, n) + 0.5)
    fm = f(mids)
    stiff_diag = np.zeros(n + 1)
    stiff_diag[0] = fm[0] / h
    stiff_diag[-1] = fm[-1] / h
    stiff_diag[1:-1] = (fm[:-1] + fm[1:]) / h
    stiff_off = -fm / h
    mass = np.full(n + 1, h)
    mass[0] = mass[-1] = h / 2.0
    scale = 1.0 / np.sqrt(mass)
    diag = stiff_diag * scale * scale
    off = stiff_off * scale[:-1] * scale[1:]
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


def richardson3(solve, n):
    """Measured-order Richardson extrapolation over grids n, 2n, 4n."""
    a, b, c = solve(n), solve(2 * n), solve(4 * n)
    d1, d2 = b - a, c - b
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.log2(np.abs(d1) / np.abs(d2))
    order = np.where(np.isfinite(order), order, 2.0)
    order = np.clip(order, 0.5, 4.0)
    return c + np.where(d2 == 0.0, 0.0, d2 / (2.0**order - 1.0))


def oracle_mode_eigenvalues(f, k, count, n=4096):
    """Extrapolated independent eigenvalues of the mode-k operator of f."""
    if k == 0:
        return richardson3(lambda m: natural_fd_eigenvalues(f, count, m), n)
    return richardson3(lambda m: dirichlet_fd_eigenvalues(f, k, count, m), n)


def mode_counts_below(f, ks, mus, rel=1e-4, T=15.0):
    """Number of mode-k eigenvalues below mu, by Sturm oscillation, for the
    (k, mu) pairs of ks and mus broadcast together: an int array of their
    shape, right for every eigenvalue that lies farther than about rel
    relative from mu.

    In t = artanh x, with q = f / (1 - x^2), mode k reads
    -(q u_t)_t + (k^2 / q) u = mu sech^2(t) u on the whole line, and q -> 1
    at both ends. The solution that decays at -infinity starts at t = -T as
    u = e^(kt) (u = 1 for k = 0), and the count is its number of zeros
    (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993), plus one
    if it crosses zero past T, which holds when q u_t / u < -k there. Each
    cell freezes q and sech^2 at its midpoint and applies the exact 2x2
    propagator of (u, q u_t) (Pruess, SIAM J. Numer. Anal. 10, 1973),
    normalized each cell; no cell holds a whole half-wave, so zeros are
    sign changes at the nodes. The method is second order: the relative
    error of the eigenvalue a count places is about 14 / cells^2 on the
    round sphere, paper-example and polynomial bumps to depth 40, and
    cells = sqrt(56 / rel) leaves four times that margin. Three quarters of
    the cells are spread evenly in gd(t) = arctan(sinh t), where mode 0's
    phase sqrt(mu) sech(t) dt advances evenly, the rest evenly in t, for
    the tails where k^2 / q dominates. The work is vectorized over every
    (k, mu) pair.
    """
    cells = math.ceil(math.sqrt(56.0 / rel))
    fine = np.linspace(-T, T, 20001)
    share = 0.75 * np.arctan(np.sinh(fine)) / np.arctan(np.sinh(T)) + 0.25 * fine / T
    t = np.interp(np.linspace(-1.0, 1.0, cells + 1), share, fine)
    ks, mus = np.broadcast_arrays(np.asarray(ks, dtype=float), np.asarray(mus, dtype=float))
    shape = ks.shape
    per_cell = (cells,) + (1,) * len(shape)  # one row per cell, broadcast over the pairs
    x = np.tanh(0.5 * (t[:-1] + t[1:]))
    w = ((1.0 - x) * (1.0 + x)).reshape(per_cell)
    q = np.asarray(f(x), dtype=float).reshape(per_cell) / w
    h = np.diff(t).reshape(per_cell)
    u, p = np.ones(shape), ks.copy()
    zeros = np.zeros(shape, dtype=int)
    for lo in range(0, cells, 256):  # cell blocks bound the propagators' memory
        hb, qb, wb = h[lo:lo + 256], q[lo:lo + 256], w[lo:lo + 256]
        v = ks * ks / qb - mus * wb
        z = v / qb * hb * hb
        r = np.sqrt(np.abs(z))
        grow = z > 0.0
        if np.any(r[~grow] >= np.pi):
            raise ValueError("a cell holds a whole half-wave: ask for a smaller rel")
        c = np.where(grow, np.cosh(r), np.cos(r))
        with np.errstate(invalid="ignore"):
            s = np.where(r > 0.0, np.where(grow, np.sinh(r), np.sin(r)) / r, 1.0)
        us = np.empty((len(c) + 1,) + shape)
        us[0] = u
        for i, (cc, du, dp) in enumerate(zip(c, hb / qb * s, v * hb * s)):
            u, p = cc * u + du * p, dp * u + cc * p
            norm = np.abs(u) + np.abs(p)
            u /= norm
            p /= norm
            us[i + 1] = u
        zeros += np.count_nonzero((us[1:] > 0.0) != (us[:-1] > 0.0), axis=0)
    return zeros + (p * u < -ks * u * u)
