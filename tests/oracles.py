"""Independent oracles for validating the package's solvers.

None of this shares code with revspec: the closed-form round-sphere spectrum
comes from classical special-function theory, and the finite-difference
oracles use a vertex-centered grid with explicitly imposed boundary
conditions, while the package solver is Jacobi-Galerkin Rayleigh-Ritz with
the pole factor (1 - x^2)^(k/2) in its basis and no boundary condition. The
two discretizations agree only if both converge to the true spectrum.
"""

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
