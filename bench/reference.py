"""Independent reference values for the benchmark's correctness checks.

Nothing here imports revspec. Profiles are rebuilt from the same JSON specs
the program reads, as the factor q = f / (1 - x^2) (so nothing cancels near
the poles), and two methods the package does not use supply the numbers:

* mode eigenvalues come from a Jacobi-Galerkin Rayleigh-Ritz solve. With
  w = 1 - x^2 and u = w^(k/2) v, v a combination of orthonormal Jacobi
  polynomials P_j^(k,k), the mode-k quadratic forms become
      stiffness = int w^(k-1) [q (w v' - k x v)^2 + k^2 v^2 / q],
      mass      = int w^k v^2,
  whose integrands are smooth on [-1, 1]. A dense generalized eigh gives
  the Ritz values, and N grows until two sizes agree;
* profile moments I(l) = int f^l and C(l) = int f^l K (K = -f''/2) come
  from mpmath: exact integration of the piecewise polynomials for
  polynomial and sampled profiles, Gauss-Legendre quadrature at 20 digits
  for the rational ones.

The fixtures' values do not depend on the seed and take a few seconds, so
they are cached in fixtures_reference.json. Rebuild the cache with

    python3 bench/reference.py --rebuild

which recomputes it from scratch; the benchmark refuses a cache whose
recorded needs differ from what the workloads ask for. The benchmark runs
this module in a child process, before anything is timed, to compute the
generated profiles' references.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh

CACHE_PATH = Path(__file__).resolve().with_name("fixtures_reference.json")

#: Relative agreement demanded between two Galerkin sizes.
GALERKIN_TOL = 1e-11
#: Distinct eigenvalues closer than this (relative) are one eigenvalue.
MERGE_REL = 1e-8
MP_DPS = 20
POLY_DPS = 60


class ReferenceFailure(RuntimeError):
    """The reference itself failed to converge; the benchmark cannot judge."""


class RefProfile:
    """A profile rebuilt from its JSON spec, as pieces of smooth functions.

    ``breaks`` splits [-1, 1] into intervals on each of which f and q are
    smooth (one interval unless the profile is a spline). ``q(x)`` is
    f / (1 - x^2) computed without cancellation; ``f`` and ``d2f``
    evaluate the profile. ``mp_pieces`` holds, per interval, a pair (origin,
    exact mpmath coefficients of f in powers of x - origin), or None when f
    is not polynomial.
    """

    def __init__(self, spec):
        self.spec = spec
        kind = spec["kind"]
        params = spec.get("params", {})
        self.kind = kind
        if kind == "canonical":
            self._init_polyfactor([1.0])
        elif kind == "paper-example":
            self._init_rational([2.0, 0.0, -2.0], [1.0, 0.0, 1.0])
        elif kind == "polynomial-factor":
            self._init_polyfactor(params["coefficients"])
        elif kind == "rational":
            self._init_rational(params["numerator"], params["denominator"])
        elif kind == "sampled":
            self._init_sampled(params["x"], params["f"])
        else:
            raise ValueError(f"unknown profile kind {kind!r}")

    # -- construction ---------------------------------------------------

    def _init_polyfactor(self, coeffs):
        qpoly = Polynomial(np.asarray(coeffs, dtype=float))
        fpoly = Polynomial([1.0, 0.0, -1.0]) * qpoly
        self.breaks = np.array([-1.0, 1.0])
        self._q = [qpoly]
        self._f = [fpoly]
        self.rational = None
        mp_q = [mpmath.mpf(float(c)) for c in coeffs]
        self.mp_pieces = [(0.0, _mp_polymul([mpmath.mpf(1), 0, mpmath.mpf(-1)], mp_q))]

    def _init_rational(self, num, den):
        num = Polynomial(np.asarray(num, dtype=float))
        den = Polynomial(np.asarray(den, dtype=float))
        quo, rem = divmod(num, Polynomial([1.0, 0.0, -1.0]))
        if np.max(np.abs(rem.coef)) > 1e-12 * max(1.0, np.max(np.abs(num.coef))):
            raise ValueError("rational numerator is not divisible by 1 - x^2")
        self.breaks = np.array([-1.0, 1.0])
        self.rational = (num, den, quo)
        self.mp_pieces = [None]

    def _init_sampled(self, xs, fs):
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if fs[0] != 0.0 or fs[-1] != 0.0:
            raise ValueError("sampled reference needs exact zeros at the endpoints")
        spline = CubicSpline(xs, fs, bc_type=((1, 2.0), (1, -2.0)))
        self.breaks = xs.copy()
        self.rational = None
        self._f, self._q, self.mp_pieces = [], [], []
        last = len(xs) - 2
        for i in range(len(xs) - 1):
            c3, c2, c1, c0 = spline.c[:, i]
            local = Polynomial([c0, c1, c2, c3])  # in s = x - xs[i]
            fpoly = local(Polynomial([-xs[i], 1.0]))
            self._f.append(fpoly)
            if i == 0:
                # f = (1 + x) g on the first piece since f(-1) = 0; divide
                # the local polynomial by s = x + 1 exactly.
                g = Polynomial([c1, c2, c3])(Polynomial([1.0, 1.0]))
                self._q.append(("left", g))
            elif i == last:
                # f = (1 - x) g on the last piece since f(1) = 0.
                g, _ = divmod(fpoly, Polynomial([1.0, -1.0]))
                self._q.append(("right", g))
            else:
                self._q.append(("plain", fpoly))
            self.mp_pieces.append((xs[i], [mpmath.mpf(float(c)) for c in (c0, c1, c2, c3)]))
        self._spline = spline

    # -- evaluation -----------------------------------------------------

    def _piece_index(self, x):
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(idx, 0, len(self.breaks) - 2)

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self.rational is not None:
            num, den, _ = self.rational
            return num(x) / den(x)
        if len(self._f) == 1:
            return self._f[0](x)
        return self._spline(x)

    def q(self, x):
        x = np.asarray(x, dtype=float)
        if self.rational is not None:
            _, den, quo = self.rational
            return quo(x) / den(x)
        if len(self._q) == 1:
            return self._q[0](x)
        out = np.empty_like(x)
        idx = self._piece_index(x)
        for i in np.unique(idx):
            sel = idx == i
            how, poly = self._q[i]
            xi = x[sel]
            if how == "left":
                out[sel] = poly(xi) / (1.0 - xi)
            elif how == "right":
                out[sel] = poly(xi) / (1.0 + xi)
            else:
                out[sel] = poly(xi) / (1.0 - xi * xi)
        return out

    def d2f(self, x):
        x = np.asarray(x, dtype=float)
        if self.rational is not None:
            num, den, _ = self.rational
            n0, n1, n2 = num(x), num.deriv(1)(x), num.deriv(2)(x)
            d0, d1, d2 = den(x), den.deriv(1)(x), den.deriv(2)(x)
            return (n2 * d0 * d0 - 2 * n1 * d1 * d0 - n0 * d2 * d0 + 2 * n0 * d1 * d1) / d0**3
        if len(self._f) == 1:
            return self._f[0].deriv(2)(x)
        return self._spline(x, 2)

    def curvature(self, x):
        return -0.5 * self.d2f(x)

    def quadrature_nodes(self, per_piece):
        """Gauss-Legendre nodes and weights on every smooth piece."""
        t, w = _gauss_legendre(per_piece)
        xs, ws = [], []
        for a, b in zip(self.breaks[:-1], self.breaks[1:]):
            xs.append(0.5 * (a + b) + 0.5 * (b - a) * t)
            ws.append(0.5 * (b - a) * w)
        return np.concatenate(xs), np.concatenate(ws)

    # -- mpmath evaluation for the moments --------------------------------

    def mp_rational(self):
        """mpmath evaluators (f, K) of a rational profile."""
        num, den, _ = self.rational
        nums = [[mpmath.mpf(float(c)) for c in num.deriv(i).coef] for i in range(3)]
        dens = [[mpmath.mpf(float(c)) for c in den.deriv(i).coef] for i in range(3)]

        def f(x):
            return _mp_polyval(nums[0], x) / _mp_polyval(dens[0], x)

        def curvature(x):
            n0, n1, n2 = (_mp_polyval(c, x) for c in nums)
            d0, d1, d2 = (_mp_polyval(c, x) for c in dens)
            return -(n2 * d0 * d0 - 2 * n1 * d1 * d0 - n0 * d2 * d0 + 2 * n0 * d1 * d1) / (2 * d0**3)

        return f, curvature


# -- mpmath polynomial helpers (ascending coefficients) -----------------------


def _mp_polymul(a, b):
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _mp_polyval(coef, x):
    acc = mpmath.mpf(0)
    for c in reversed(coef):
        acc = acc * x + c
    return acc


def _mp_poly_integral(coef, a, b):
    total = mpmath.mpf(0)
    for i, c in enumerate(coef):
        if c != 0:
            total += c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
    return total


def _mp_deriv(coef):
    return [c * i for i, c in enumerate(coef)][1:] or [mpmath.mpf(0)]


def moments(prof: RefProfile, l_max: int):
    """Reference I(l) for l = 0..l_max and C(l) for l = 0..l_max, as floats.

    Powers of a polynomial piece are integrated exactly at POLY_DPS digits,
    which absorbs the cancellation between the large alternating
    coefficients of f^l; rational profiles use Gauss-Legendre quadrature at
    MP_DPS digits.
    """
    polynomial = prof.mp_pieces[0] is not None
    with mpmath.workdps(POLY_DPS if polynomial else MP_DPS):
        I = [mpmath.mpf(0)] * (l_max + 1)
        C = [mpmath.mpf(0)] * (l_max + 1)
        if polynomial:
            for (a, b), (origin, fcoef) in zip(zip(prof.breaks[:-1], prof.breaks[1:]), prof.mp_pieces):
                # Integrate in the piece's own variable x - origin.
                a = mpmath.mpf(float(a)) - mpmath.mpf(float(origin))
                b = mpmath.mpf(float(b)) - mpmath.mpf(float(origin))
                kcoef = [-c / 2 for c in _mp_deriv(_mp_deriv(fcoef))]
                power = [mpmath.mpf(1)]
                for l in range(l_max + 1):
                    I[l] += _mp_poly_integral(power, a, b)
                    C[l] += _mp_poly_integral(_mp_polymul(power, kcoef), a, b)
                    power = _mp_polymul(power, fcoef)
        else:
            f, curvature = prof.mp_rational()
            for l in range(l_max + 1):
                I[l] = mpmath.quad(lambda x: f(x) ** l, [-1, 0, 1], method="gauss-legendre")
                C[l] = mpmath.quad(lambda x: f(x) ** l * curvature(x), [-1, 0, 1],
                                   method="gauss-legendre")
        return [float(v) for v in I], [float(v) for v in C]


def x2k_integral(prof: RefProfile):
    """Reference int x^2 K dx (the curvature sign indicator's second integral)."""
    x, w = prof.quadrature_nodes(64)
    return float(np.dot(w, x * x * prof.curvature(x)))


# -- Jacobi-Galerkin mode solver -----------------------------------------------


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    return leggauss(n)


def _orthonormal_jacobi(n_basis, k, x):
    """Orthonormal P_j^(k,k), j < n_basis, and derivatives, at nodes x."""
    p = np.empty((n_basis, x.size))
    dp = np.empty((n_basis, x.size))
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))
    p[0] = 1.0 / math.sqrt(mu0)
    dp[0] = 0.0
    b_prev = 0.0
    for n in range(n_basis - 1):
        m = n + 1
        b = math.sqrt(m * (m + 2.0 * k) / ((2.0 * m + 2.0 * k + 1.0) * (2.0 * m + 2.0 * k - 1.0)))
        if n == 0:
            p[1] = x * p[0] / b
            dp[1] = p[0] / b
        else:
            p[m] = (x * p[n] - b_prev * p[n - 1]) / b
            dp[m] = (p[n] + x * dp[n] - b_prev * dp[n - 1]) / b
        b_prev = b
    return p, dp


def _ritz_values(prof: RefProfile, k, n_basis):
    per_piece = n_basis + 40 if len(prof.breaks) > 2 else 2 * n_basis + 60
    x, wts = prof.quadrature_nodes(per_piece)
    w = 1.0 - x * x
    q = prof.q(x)
    p, dp = _orthonormal_jacobi(n_basis, k, x)
    if k == 0:
        stiff = (dp * (q * w * wts)) @ dp.T
    else:
        wk1 = w ** (k - 1) * wts
        d = w * dp - k * x * p
        stiff = (d * (q * wk1)) @ d.T + (k * k) * ((p * (wk1 / q)) @ p.T)
    mass = (p * (w**k * wts)) @ p.T
    return eigh(stiff, mass, eigvals_only=True)


def mode_eigenvalues(prof: RefProfile, k: int, count: int, tol: float = GALERKIN_TOL):
    """First ``count`` mode-k eigenvalues, converged in the Galerkin size."""
    k = abs(int(k))
    n_basis = max(24, 2 * count + 16)
    prev = None
    for _ in range(8):
        vals = _ritz_values(prof, k, n_basis)[:count]
        if prev is not None:
            scale = np.maximum(np.abs(vals), 1.0)
            if np.all(np.abs(vals - prev) <= tol * scale):
                return vals
        prev = vals
        n_basis = int(n_basis * 1.25) + 8
    raise ReferenceFailure(f"Galerkin reference for k={k}, count={count} did not settle")


def _mode_below(prof, k, ceiling, solved):
    """Converged mode-k eigenvalues reaching past ``ceiling`` (memoized in solved)."""
    vals = solved.get(k)
    while vals is None or vals[-1] <= ceiling:
        vals = mode_eigenvalues(prof, k, 4 if vals is None else 2 * len(vals))
        solved[k] = vals
    return vals


def distinct_spectrum(prof: RefProfile, m_target: int):
    """Reference distinct eigenvalues lambda_0..lambda_m_target with multiplicities.

    Returns (values, multiplicities, modes) lists of length m_target + 1.
    Every mode eigenvalue below a ceiling is enumerated: each mode spectrum
    is solved past the ceiling, and modes stop at the first k whose lowest
    eigenvalue clears it (the lowest eigenvalue increases with k). The
    ceiling doubles until it holds m_target + 1 distinct values.
    """
    solved = {}
    ceiling = 2.0 * (m_target + 1)
    while True:
        members = []
        k = 0
        while True:
            vals = _mode_below(prof, k, ceiling, solved)
            if k >= 1 and vals[0] > ceiling:
                break
            members.extend((float(v), k) for v in vals if v <= ceiling)
            k += 1
        members.sort()
        clusters = []
        for value, kk in members:
            if clusters and value - clusters[-1][-1][0] <= MERGE_REL * max(abs(value), 1.0):
                clusters[-1].append((value, kk))
            else:
                clusters.append([(value, kk)])
        if len(clusters) >= m_target + 1:
            break
        ceiling *= 2.0
    values, mults, modes = [], [], []
    for cluster in clusters[: m_target + 1]:
        ks = sorted({kk for _, kk in cluster})
        value = sum(v for v, _ in cluster) / len(cluster)
        values.append(0.0 if ks == [0] and abs(value) < 1e-9 else value)
        mults.append(2 * sum(1 for kk in ks if kk >= 1) + (1 if 0 in ks else 0))
        modes.append(ks)
    return values, mults, modes


# -- what the checks need, per profile ---------------------------------------


def _merge_needs(needs_list):
    """The union of several needs dicts (see workloads.reference_needs)."""
    out = {}
    for needs in needs_list:
        for key, value in needs.items():
            if key == "modes":
                modes = out.setdefault("modes", {})
                for k, count in value.items():
                    modes[int(k)] = max(modes.get(int(k), 0), int(count))
            elif isinstance(value, bool):
                out[key] = out.get(key, False) or value
            elif isinstance(value, list):
                out[key] = sorted(set(out.get(key, [])) | set(value))
            else:
                out[key] = max(out.get(key, 0), int(value))
    return out


def profile_reference(spec, needs):
    """Every reference number the checks use for one profile spec.

    ``needs`` may ask for ``modes`` (k -> count of mode eigenvalues),
    ``m_target`` (distinct spectrum depth), ``l_max`` (moments I, C up to
    l_max), ``x2K`` (the integral of x^2 K), ``samples`` (f and K on that
    many equispaced points) and ``trace_terms`` with ``trace_k`` (sums of
    that many reciprocal mode-k eigenvalues for each k listed).
    """
    prof = RefProfile(spec)
    out = {}
    if "modes" in needs:
        out["modes"] = {str(k): [float(v) for v in mode_eigenvalues(prof, int(k), int(c))]
                        for k, c in needs["modes"].items()}
    if "m_target" in needs:
        values, mults, modes = distinct_spectrum(prof, int(needs["m_target"]))
        out["spectrum"] = {"values": values, "multiplicities": mults, "modes": modes}
    if "l_max" in needs:
        out["I"], out["C"] = moments(prof, int(needs["l_max"]))
    if needs.get("x2K"):
        out["x2K"] = x2k_integral(prof)
    if "samples" in needs:
        x = np.linspace(-1.0, 1.0, int(needs["samples"]))
        out["samples"] = {"x": x.tolist(), "f": prof.f(x).tolist(), "K": prof.curvature(x).tolist()}
    if "trace_terms" in needs:
        terms = int(needs["trace_terms"])
        out["trace_partial"] = {
            str(k): float(np.sum(1.0 / mode_eigenvalues(prof, k, terms, tol=1e-9))) for k in needs["trace_k"]
        }
    return out


# -- fixture cache -------------------------------------------------------------


def _fixture_needs():
    from profiles import FIXTURES
    from workloads import WORKLOADS, reference_needs

    return {name: _merge_needs(reference_needs(w, name) for w in WORKLOADS) for name in FIXTURES}


def _canonical_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def load_fixture_cache():
    """The cached fixture references; raises ReferenceFailure if stale."""
    try:
        data = json.loads(CACHE_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReferenceFailure(f"cannot read {CACHE_PATH.name}: {exc}") from exc
    if data.get("needs") != _canonical_json(_fixture_needs()):
        raise ReferenceFailure(f"{CACHE_PATH.name} is stale; rebuild it with python3 bench/reference.py --rebuild")
    return data["profiles"]


def rebuild_fixture_cache():
    needs = _fixture_needs()
    profiles = {name: profile_reference({"kind": name}, n) for name, n in needs.items()}
    payload = {"needs": _canonical_json(needs), "profiles": profiles}
    CACHE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {CACHE_PATH}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rebuild", action="store_true",
                        help="recompute the fixture cache fixtures_reference.json")
    parser.add_argument("--request", help="JSON file {name: {spec, needs}} to compute references for")
    parser.add_argument("--out", help="where to write the references asked for by --request")
    args = parser.parse_args(argv)
    if args.rebuild:
        rebuild_fixture_cache()
        return 0
    if not (args.request and args.out):
        parser.error("give --rebuild, or --request and --out")
    request = json.loads(Path(args.request).read_text(encoding="utf-8"))
    fixtures = load_fixture_cache()
    out = {}
    for name, item in request.items():
        if item["spec"]["kind"] == name and name in fixtures:
            out[name] = fixtures[name]
        else:
            out[name] = profile_reference(item["spec"], item["needs"])
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
