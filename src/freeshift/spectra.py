"""Free energies, critical exponents, cogrowth, and multifractal spectra.

The free energy t(beta) is the unique u solving P(beta psi + u zeta) = 0,
where zeta is a geometric potential (strictly negative), so the pressure is
strictly decreasing in u and the root is unique. Restricting the pressure
to a quotient fiber gives t_N(beta); its value at beta = 0 is the critical
exponent delta_N, which by Bowen's formula is the Hausdorff dimension of
the radial limit set cut out by the quotient.

On exact scopes (the full shift, finite and free abelian quotients) P is
convex in u with derivative P' = integral of zeta against the equilibrium
measure, read from the left and right Perron vectors, and
P' <= max zeta < 0. On a free abelian quotient P is the twisted minimum
lambda_N, a partial minimum of a jointly convex function, so convex too,
and by the envelope theorem its derivative is taken at the minimising
twist. Newton's method therefore converges from any start, with no
bracket; a curve solves all its betas at once, one batched power iteration
(on Z^k, one batched twist minimisation) per Newton round, warm-started
from the previous round's Perron vectors and twists, with the
Collatz-Wielandt enclosure checked every few steps. Extrapolated scopes
(free-kill quotients) have no derivative and use Brent's method, whose
every step keeps a bracket on which the pressure changes sign.

When zeta is constant the root is available in closed form from a single
pressure evaluation (P(beta psi) shifts linearly in u), which is also what
makes the cogrowth ratio cheap: eta = lambda_N / log(2d - 1).
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .potentials import Potential, combine
from .pressure import (full_pressure, has_exact_route, restricted_pressure,
                       scope_rows)

DEFAULT_U_TOL = 1e-10
# Newton rounds before an exact-scope root is declared uncertifiable; a
# convex decreasing pressure needs far fewer (about 4 per point)
NEWTON_MAX_ROUNDS = 100
DEFAULT_BETA_RANGE = (-4.0, 4.0)
DEFAULT_BETA_STEP = 0.05


def default_beta_grid(lo=None, hi=None, step=None):
    lo = DEFAULT_BETA_RANGE[0] if lo is None else lo
    hi = DEFAULT_BETA_RANGE[1] if hi is None else hi
    step = DEFAULT_BETA_STEP if step is None else step
    if not (hi > lo and step > 0
            and (count := int(round((hi - lo) / step))) >= 1):
        raise ValidationError(f"bad beta grid [{lo}, {hi}] step {step}: it "
                              f"needs hi > lo, step > 0 and two or more "
                              f"points")
    return np.linspace(lo, hi, count + 1)


@dataclass(frozen=True)
class FreeEnergyPoint:
    beta: float
    t: float
    sigma: float
    method: str
    residual: float      # |pressure at t|, from the solver's evaluation there
    evaluations: int


def _checked_psi(psi, zeta):
    """psi (zero for None) after checking zeta is strictly negative and
    both share the rank."""
    # plain potentials that happen to be strictly negative are accepted
    if not (isinstance(zeta, Potential) and zeta.max < 0):
        raise ValidationError(
            "zeta must be a geometric potential (all values < 0)")
    if psi is None:
        return Potential.constant(zeta.d, 0.0)
    if psi.d != zeta.d:
        raise ValidationError("psi and zeta have different ranks")
    return psi


def _newton_scope(zeta, quotient):
    """True where the scope's pressure is exact, with a derivative in u,
    and zeta is not constant (constant zeta has a closed form)."""
    return has_exact_route(quotient) and float(np.ptp(zeta.values)) != 0.0


def _root_bound(zeta, u_tol):
    """The root certificate: |P(t)| may not exceed this."""
    return max(1e-9, float(np.abs(zeta.values).max()) * u_tol)


def _newton_roots(psi, zeta, betas, quotient=None, u_tol=DEFAULT_U_TOL,
                  u_max=1e6, tol=1e-13):
    """Roots of P(beta psi + u zeta) = 0 for every beta at once on an exact
    scope, by Newton steps u <- u - P/P' from u = 0. Each round evaluates
    every live row in one batch, warm-started from its previous Perron
    vectors (and, on a free abelian quotient, twist). A row stops at a
    point where P was evaluated, once its step is at most u_tol / 2 and |P|
    passes the root certificate.

    On a free abelian quotient P is the twisted minimum lambda_N, a
    partial minimum of a jointly convex function and so convex in u; by
    the envelope theorem its derivative is the integral of zeta at the
    minimising twist, again at most max zeta < 0."""
    depth = max(psi.depth, zeta.depth)
    a = psi.as_depth(depth).values
    z = zeta.as_depth(depth).values
    evaluate, method, _ = scope_rows(zeta.d, depth, quotient, z, tol)
    bound = _root_bound(zeta, u_tol)
    betas = np.asarray(betas, dtype=float)
    u = np.zeros(len(betas))
    t, residual = np.empty(len(betas)), np.empty(len(betas))
    evaluations = np.zeros(len(betas), dtype=np.int64)
    live, start = np.arange(len(betas)), None
    for _ in range(NEWTON_MAX_ROUNDS):
        rows = evaluate(betas[live, None] * a + u[live, None] * z, start)
        evaluations[live] += 1
        step = -rows.values / rows.slopes
        done = (np.abs(step) <= 0.5 * u_tol) & (np.abs(rows.values) <= bound)
        t[live[done]] = u[live[done]]
        residual[live[done]] = np.abs(rows.values[done])
        keep = ~done
        live = live[keep]
        if not live.size:
            break
        u[live] += step[keep]
        if np.abs(u[live]).max() > u_max:
            raise NumericError(
                f"free-energy Newton step left [-{u_max:g}, {u_max:g}]")
        start = tuple(v[keep] for v in rows.start)
    else:
        raise NumericError(
            f"free-energy root certificate failed: |P| = "
            f"{np.abs(rows.values[keep]).max():g} exceeds {bound:g} "
            f"after {NEWTON_MAX_ROUNDS} Newton steps")
    return [FreeEnergyPoint(float(b), float(tt), 0.0, method, float(r),
                            int(e))
            for b, tt, r, e in zip(betas, t, residual, evaluations)]


def _scope_pressure(psi, zeta, quotient, n_max, tol):
    """evaluate(beta, u): the scope's pressure of beta psi + u zeta as a
    PressureResult."""
    if quotient is None:
        def ev(beta, u):
            return full_pressure(combine((beta, psi), (u, zeta)), tol=tol)
        return ev

    def ev(beta, u):
        return restricted_pressure(combine((beta, psi), (u, zeta)),
                                   quotient, n_max=n_max, tol=tol)
    return ev


def _brent_root(f, a, fa, b, fb, u_tol):
    """Root of f in the sign-changing bracket [a, b] (fa = f(a) and
    fb = f(b) already known) by Brent's method (Algorithms for Minimization
    without Derivatives, 1973, ch. 4): inverse quadratic interpolation or a
    secant step when it stays well inside the bracket, bisection otherwise.
    Every iterate keeps a sign change between b and c, and the search stops
    once that bracket's half-width is at most 4 eps |b| + u_tol / 2. The
    returned b is always a point where f was evaluated."""
    eps = np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0) and fb != 0:
            # the sign change moved to [a, b]; restart the bracket there
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 4 * eps * abs(b) + 0.5 * u_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:      # secant
                p, q = 2 * m * s, 1 - s
            else:           # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            if p > 0:
                q = -q
            p = abs(p)
            if 2 * p < min(3 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def free_energy(psi, zeta, beta, quotient=None, n_max=40,
                u_tol=DEFAULT_U_TOL, u_max=1e6, tol=1e-13):
    """Solve P(beta psi + u zeta, scope) = 0 for u.

    psi may be None (treated as zero). Exact scopes certify
    |pressure at root| <= 1e-9 and solve by Newton steps (the one-row case
    of free_energy_curve); extrapolated scopes (free-kill quotients)
    solve by Brent's method, report sigma = sigma_lambda / |mean zeta| and
    certify the residual within 3 sigma.
    """
    psi = _checked_psi(psi, zeta)
    if _newton_scope(zeta, quotient):
        return _newton_roots(psi, zeta, [beta], quotient, u_tol, u_max,
                             tol)[0]
    zbar = float(zeta.values.mean())
    ev = _scope_pressure(psi, zeta, quotient, n_max, tol)

    if float(np.ptp(zeta.values)) == 0.0:
        # constant zeta: P(beta psi + u zeta) = P(beta psi) + u zeta, one
        # pressure evaluation gives the root in closed form
        c = -float(zeta.values[0])
        base = ev(beta, 0.0)
        t = base.value / c
        sigma = base.sigma / c
        residual = abs(base.value - t * c)    # exact algebra, ~eps
        return FreeEnergyPoint(float(beta), t, sigma, base.method,
                               residual, 1)

    results = {}    # u -> PressureResult; the certificate reuses the root's

    def P(u):
        if u not in results:
            results[u] = ev(beta, u)
        return results[u].value

    p0 = P(0.0)
    if p0 == 0.0:
        lo = hi = 0.0
        plo = phi = p0
    elif p0 > 0:
        lo, plo = 0.0, p0
        hi, step = 1.0, 1.0
        while (phi := P(hi)) > 0:
            lo, plo = hi, phi
            step *= 2
            hi += step
            if hi > u_max:
                raise NumericError(
                    f"free-energy bracketing failed: pressure still "
                    f"positive at u = {lo:g}")
    else:
        hi, phi = 0.0, p0
        lo, step = -1.0, 1.0
        while (plo := P(lo)) < 0:
            hi, phi = lo, plo
            step *= 2
            lo -= step
            if lo < -u_max:
                raise NumericError(
                    f"free-energy bracketing failed: pressure still "
                    f"negative at u = {hi:g}")
    if plo < phi:
        raise NumericError(
            "pressure failed to decrease across the bracket "
            f"[{lo:g}, {hi:g}]: {plo:g} -> {phi:g}")
    t = _brent_root(P, lo, plo, hi, phi, u_tol)
    final = results[t]          # an extrapolated pressure
    residual = abs(final.value)
    bound = 3 * final.sigma + 1e-9
    if residual > max(bound, _root_bound(zeta, u_tol)):
        raise NumericError(
            f"free-energy root certificate failed: |P| = {residual:g} "
            f"exceeds {bound:g}")
    return FreeEnergyPoint(float(beta), t, final.sigma / abs(zbar),
                           final.method, residual, len(results))


def delta(zeta, quotient=None, n_max=40, **kw):
    """Critical exponent of the scope: delta = t(0), the root of
    P(u zeta) = 0. Bowen's formula reads it as the Hausdorff dimension of
    the (radial) limit set."""
    return free_energy(None, zeta, 0.0, quotient=quotient, n_max=n_max, **kw)


def bowen_dimension(zeta, ambient_dim=1.0, tol=1e-13, u_tol=DEFAULT_U_TOL):
    """Dimension of the full limit set: root of s -> P(s zeta).

    Warns when the symbolic value exceeds the ambient dimension, which
    signals that the contraction ratios are not realizable by a conformal
    system in that ambient space."""
    point = delta(zeta, tol=tol, u_tol=u_tol)
    if point.t > ambient_dim + 1e-12:
        warnings.warn(
            f"Bowen dimension {point.t:.6f} exceeds the ambient dimension "
            f"{ambient_dim:g}; the ratio data is not geometrically "
            f"realizable there", stacklevel=2)
    return point


@dataclass(frozen=True)
class CogrowthResult:
    eta: float
    sigma: float
    method: str
    fiber_rate: float    # lambda_N at f = 0
    ambient_rate: float  # log(2d - 1)


def cogrowth(quotient, n_max=40, tol=1e-13):
    """eta = delta_N / delta with unit-speed zeta, i.e. the fiber growth
    rate at zero potential over log(2d - 1). Exact for finite and free
    abelian quotients."""
    d = quotient.d
    zero = Potential.constant(d, 0.0)
    res = restricted_pressure(zero, quotient, n_max=n_max, tol=tol)
    amb = math.log(2 * d - 1)
    return CogrowthResult(res.value / amb, res.sigma / amb, res.method,
                          res.value, amb)


# ---------------------------------------------------------------------------
# curves

@dataclass
class FreeEnergyCurve:
    betas: np.ndarray
    points: list
    quotient_tag: str = "full"

    @property
    def t_values(self):
        return np.array([p.t for p in self.points])

    @property
    def sigmas(self):
        return np.array([p.sigma for p in self.points])

    def slopes(self):
        """Sampled t'(beta): central differences, one-sided at the ends."""
        return np.gradient(self.t_values, self.betas)

    def convexity_margin(self):
        """min over interior points of (slope increment + noise allowance);
        nonnegative means consistent with convexity."""
        b, t, s = self.betas, self.t_values, self.sigmas
        left = np.diff(t) / np.diff(b)
        inc = np.diff(left)
        # each slope increment mixes three t errors
        noise = (s[:-2] + 2 * s[1:-1] + s[2:]) / np.minimum(
            np.diff(b)[:-1], np.diff(b)[1:])
        if len(inc) == 0:
            return 0.0
        return float((inc + noise + 1e-9).min())

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["beta", "t", "method", "sigma"])
            for p in self.points:
                w.writerow([f"{p.beta:.12g}", f"{p.t:.12g}", p.method,
                            f"{p.sigma:.12g}"])


def free_energy_curve(psi, zeta, betas=None, quotient=None, n_max=40,
                      **kw):
    """t(beta) over a grid, in grid order: on exact scopes all roots at
    once by batched Newton steps, otherwise one free_energy per point."""
    if betas is None:
        betas = default_beta_grid()
    betas = np.asarray(betas, dtype=float)
    tag = "full" if quotient is None else quotient.describe()
    if _newton_scope(zeta, quotient):
        points = _newton_roots(_checked_psi(psi, zeta), zeta, betas,
                               quotient, **kw)
    else:
        points = [free_energy(psi, zeta, b, quotient=quotient, n_max=n_max,
                              **kw) for b in betas]
    return FreeEnergyCurve(betas, points, tag)


@dataclass
class SpectrumCurve:
    """Sampled b(alpha) = -t*(-alpha) = inf_beta (t(beta) + beta alpha).

    flags: "interior" when the infimum is attained strictly inside the beta
    grid, "endpoint" when it touches the grid boundary (value unreliable,
    slope range exhausted), "outside" (NaN) beyond [alpha_minus,
    alpha_plus], "point" for the degenerate single-alpha spectrum."""

    alphas: np.ndarray
    b_values: np.ndarray
    flags: list
    alpha_minus: float
    alpha_plus: float
    attained_beta: np.ndarray
    t0: float
    quotient_tag: str = "full"

    def interior(self):
        keep = [i for i, f in enumerate(self.flags) if f == "interior"]
        return self.alphas[keep], self.b_values[keep]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "b", "flag"])
            for a, b, f in zip(self.alphas, self.b_values, self.flags):
                w.writerow([f"{a:.12g}", f"{b:.12g}", f])


def legendre(curve, alphas=None, n_alphas=None):
    """Discrete Legendre conjugate of a sampled free-energy curve.

    The conjugate is taken over the sampled grid only; alpha endpoints are
    estimates from the extreme sampled slopes and flagged, never silently
    extrapolated. Raises on a curve of fewer than two points, and on input
    that is non-convex beyond the noise allowance of its points."""
    if len(curve.betas) < 2:
        raise ValidationError("Legendre conjugation needs a free-energy "
                              "curve of two or more points")
    margin = curve.convexity_margin()
    if margin < 0:
        raise ValidationError(
            f"free-energy curve is non-convex beyond tolerance "
            f"(margin {margin:g}); refusing Legendre conjugation")
    betas = curve.betas
    ts = curve.t_values
    slopes = curve.slopes()
    t0_idx = int(np.argmin(np.abs(betas)))
    t0 = float(ts[t0_idx])
    a_minus = float(-slopes.max())
    a_plus = float(-slopes.min())
    if a_plus - a_minus < 1e-10:
        # affine t: constant psi/zeta ratio, the spectrum is a point
        alpha = float(-slopes.mean())
        return SpectrumCurve(np.array([alpha]), np.array([t0]), ["point"],
                             alpha, alpha, np.array([betas[t0_idx]]), t0,
                             curve.quotient_tag)
    if alphas is None:
        alphas = np.linspace(a_minus, a_plus, n_alphas or len(betas))
    alphas = np.asarray(alphas, dtype=float)
    vals = np.empty(len(alphas))
    flags = []
    att = np.empty(len(alphas))
    for i, a in enumerate(alphas):
        if a < a_minus - 1e-12 or a > a_plus + 1e-12:
            vals[i] = math.nan
            att[i] = math.nan
            flags.append("outside")
            continue
        obj = ts + betas * a
        j = int(np.argmin(obj))
        vals[i] = float(obj[j])
        att[i] = float(betas[j])
        flags.append("endpoint" if j in (0, len(betas) - 1) else "interior")
    return SpectrumCurve(alphas, vals, flags, a_minus, a_plus, att, t0,
                         curve.quotient_tag)


def level_set_dimension(alpha, psi, zeta, quotient=None, curve=None,
                        betas=None, n_max=40, **kw):
    """Dimension b(alpha) of the level set where the Birkhoff ratio of psi
    to the geometry equals alpha. Returns NaN for alpha outside the sampled
    slope range: the level set is empty there."""
    if curve is None:
        curve = free_energy_curve(psi, zeta, betas=betas, quotient=quotient,
                                  n_max=n_max, **kw)
    spec = legendre(curve, np.array([float(alpha)]))
    if spec.flags == ["point"]:
        return spec.b_values[0] if abs(alpha - spec.alpha_minus) < 1e-9 \
            else math.nan
    return float(spec.b_values[0])
