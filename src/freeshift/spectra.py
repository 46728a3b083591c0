"""Free energies, critical exponents, cogrowth, and multifractal spectra.

The free energy t(beta) is the unique u solving P(beta psi + u zeta) = 0,
where zeta is a geometric potential (strictly negative), so the pressure is
strictly decreasing in u and the root is unique. Restricting the pressure
to a quotient fiber gives t_N(beta); its value at beta = 0 is the critical
exponent delta_N, which by Bowen's formula is the Hausdorff dimension of
the radial limit set cut out by the quotient.

Every scope solves its roots in one loop, all betas at once, by steps
u <- u - P/s from u = 0 on the rows of the scope's pressure route. On
exact scopes (the full shift, finite and free abelian quotients) P is
convex in u with derivative P' = integral of zeta against the equilibrium
measure, read from the left and right Perron vectors, and
P' <= max zeta < 0; s = P' is Newton's method, which therefore converges
from any start, with no bracket. On a free abelian quotient P is the
twisted minimum lambda_N, a partial minimum of a jointly convex function,
so convex too, and by the envelope theorem its derivative is taken at the
minimising twist. Each round is one batched power iteration (on Z^k, one
batched twist minimisation), warm-started from the previous round's
Perron vectors and twists, with the Collatz-Wielandt enclosure checked
every few steps. On free-kill quotients the route fits each row and gives
no derivative: s is the secant through each row's previous point, and at
first min zeta, the steepest slope a convex decreasing P can have, so the
first step cannot overshoot.

When zeta is constant the root is available in closed form from a single
pressure evaluation (P(beta psi) shifts linearly in u), which is also what
makes the cogrowth ratio cheap: eta = lambda_N / log(2d - 1). A second
evaluation at the root certifies it as every other root is certified.
"""

import csv
import math
import warnings

import numpy as np

from .errors import NumericError, ValidationError
from .potentials import Potential, combine
from .pressure import full_pressure, restricted_pressure, scope_rows

DEFAULT_U_TOL = 1e-10
# steps before a root is declared uncertifiable; a convex decreasing
# pressure needs far fewer (about 4 per point on exact scopes, 7 on fits)
NEWTON_MAX_ROUNDS = 100
# a root beyond [-U_MAX, U_MAX] is refused
U_MAX = 1e6
DEFAULT_BETA_RANGE = (-4.0, 4.0)
DEFAULT_BETA_STEP = 0.05


def default_beta_grid(lo=None, hi=None, step=None):
    """lo to hi in round((hi - lo) / step) equal steps, so the grid ends at
    hi: lo=0, hi=1, step=0.3 gives 0, 1/3, 2/3 and 1."""
    lo = DEFAULT_BETA_RANGE[0] if lo is None else lo
    hi = DEFAULT_BETA_RANGE[1] if hi is None else hi
    step = DEFAULT_BETA_STEP if step is None else step
    if not (hi > lo and step > 0 and math.isfinite((hi - lo) / step)
            and (count := int(round((hi - lo) / step))) >= 1):
        raise ValidationError(f"bad beta grid [{lo}, {hi}] step {step}: it "
                              f"needs hi > lo, step > 0 and a finite count "
                              f"of two or more points")
    return np.linspace(lo, hi, count + 1)


class FreeEnergyPoint:
    """The root t of P(beta psi + t zeta) = 0 with its provenance."""

    def __init__(self, beta, t, sigma, method, residual, evaluations):
        self.beta = beta
        self.t = t
        self.sigma = sigma
        self.method = method
        self.residual = residual    # |pressure at t|, evaluated there
        self.evaluations = evaluations


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


def _roots(psi, zeta, betas, quotient, n_max, u_tol, tol):
    """Roots of P(beta psi + u zeta) = 0 for every beta at once, by steps
    u <- u - P/s from u = 0 (see the module docstring). Every round
    evaluates all live rows in one batch of the scope's scope_rows route.
    Rows with slopes take s = P' and warm start from the route's start;
    fitted rows take s from the secant through their previous point, min
    zeta at first. A row stops at a point where P was evaluated, once its
    step is at most u_tol / 2 and |P| <= max(1e-9, max|zeta| u_tol)."""
    depth = max(psi.depth, zeta.depth)
    a = psi.as_depth(depth).values
    z = zeta.as_depth(depth).values
    evaluate, method, _ = scope_rows(zeta.d, depth, quotient, z, tol, n_max)
    bound = max(1e-9, float(np.abs(zeta.values).max()) * u_tol)
    betas = np.asarray(betas, dtype=float)
    n = len(betas)
    u, t, residual, sigma = (np.zeros(n) for _ in range(4))
    # the fitted rows' secant slopes and their previous point (u, P)
    secant, last_u, last_p = np.full(n, z.min()), np.empty(n), np.empty(n)
    evaluations = np.zeros(n, dtype=np.int64)
    live, start = np.arange(n), None
    for k in range(NEWTON_MAX_ROUNDS):
        rows = evaluate(betas[live, None] * a + u[live, None] * z, start)
        values = rows.values
        if rows.slopes is None:
            sigma[live] = [f.sigma for f in rows.fits]
            if k:
                secant[live] = ((values - last_p[live])
                                / (u[live] - last_u[live]))
            last_u[live], last_p[live] = u[live], values
            step = -values / secant[live]
        else:
            step = -values / rows.slopes
        evaluations[live] += 1
        done = (np.abs(step) <= 0.5 * u_tol) & (np.abs(values) <= bound)
        t[live[done]] = u[live[done]]
        residual[live[done]] = np.abs(values[done])
        keep = ~done
        live = live[keep]
        if not live.size:
            break
        u[live] += step[keep]
        if np.abs(u[live]).max() > U_MAX:
            raise NumericError(
                f"free-energy Newton step left [-{U_MAX:g}, {U_MAX:g}]")
        if rows.start is not None:
            start = tuple(v[keep] for v in rows.start)
    else:
        raise NumericError(
            f"free-energy root certificate failed: |P| = "
            f"{np.abs(values[keep]).max():g} exceeds {bound:g} "
            f"after {NEWTON_MAX_ROUNDS} steps")
    sigma /= abs(float(zeta.values.mean()))
    return [FreeEnergyPoint(float(b), float(tt), float(s), method, float(r),
                            int(e))
            for b, tt, s, r, e in zip(betas, t, sigma, residual,
                                      evaluations)]


def _closed_form(psi, zeta, beta, quotient, n_max, u_tol, tol):
    """The root for a constant zeta = -c: P(beta psi + u zeta) =
    P(beta psi) - u c, so one pressure evaluation gives t = P(beta psi) /
    c. A second one, at t, is the residual, held to _roots' bound."""
    c = -float(zeta.values[0])

    def pressure(u):
        pot = combine((beta, psi), (u, zeta))
        return (full_pressure(pot, tol=tol) if quotient is None else
                restricted_pressure(pot, quotient, n_max=n_max, tol=tol))
    base = pressure(0.0)
    t = base.value / c
    if abs(t) > U_MAX:
        raise NumericError(
            f"free-energy Newton step left [-{U_MAX:g}, {U_MAX:g}]")
    residual, bound = abs(pressure(t).value), max(1e-9, c * u_tol)
    if residual > bound:
        raise NumericError(
            f"free-energy root certificate failed: |P| = {residual:g} "
            f"exceeds {bound:g} at the closed-form root")
    return FreeEnergyPoint(float(beta), t, base.sigma / c, base.method,
                           residual, 2)


def free_energy(psi, zeta, beta, quotient=None, n_max=40,
                u_tol=DEFAULT_U_TOL, tol=1e-13):
    """Solve P(beta psi + u zeta, scope) = 0 for u: the one-point
    free_energy_curve. psi may be None (treated as zero). Every root
    certifies |pressure at root| <= max(1e-9, max|zeta| u_tol); on a
    free-kill quotient sigma = sigma_lambda / |mean zeta|, 0 elsewhere."""
    return free_energy_curve(psi, zeta, [beta], quotient, n_max, u_tol=u_tol,
                             tol=tol).points[0]


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


class CogrowthResult:
    """eta = fiber_rate / ambient_rate: lambda_N at f = 0 over
    log(2d - 1)."""

    def __init__(self, eta, sigma, method, fiber_rate, ambient_rate):
        self.eta = eta
        self.sigma = sigma
        self.method = method
        self.fiber_rate = fiber_rate
        self.ambient_rate = ambient_rate


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

class FreeEnergyCurve:
    """The FreeEnergyPoint of every beta, in grid order."""

    def __init__(self, betas, points):
        self.betas = betas
        self.points = points

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
                      u_tol=DEFAULT_U_TOL, tol=1e-13):
    """t(beta) over a grid, in grid order: all roots at once (_roots), or
    the closed form of each point when zeta is constant."""
    if betas is None:
        betas = default_beta_grid()
    betas = np.asarray(betas, dtype=float)
    psi = _checked_psi(psi, zeta)
    if float(np.ptp(zeta.values)) == 0.0:
        points = [_closed_form(psi, zeta, b, quotient, n_max, u_tol, tol)
                  for b in betas]
    else:
        points = _roots(psi, zeta, betas, quotient, n_max, u_tol, tol)
    return FreeEnergyCurve(betas, points)


class SpectrumCurve:
    """Sampled b(alpha) = -t*(-alpha) = inf_beta (t(beta) + beta alpha).

    flags: "interior" when the infimum is attained strictly inside the beta
    grid, "endpoint" when it touches the grid boundary (value unreliable,
    slope range exhausted), "outside" (NaN) beyond [alpha_minus,
    alpha_plus], "point" for the degenerate single-alpha spectrum."""

    def __init__(self, alphas, b_values, flags, alpha_minus, alpha_plus, t0):
        self.alphas = alphas
        self.b_values = b_values
        self.flags = flags
        self.alpha_minus = alpha_minus
        self.alpha_plus = alpha_plus
        self.t0 = t0

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
                             alpha, alpha, t0)
    if alphas is None:
        alphas = np.linspace(a_minus, a_plus, n_alphas or len(betas))
    alphas = np.asarray(alphas, dtype=float)
    # one row of t(beta) + beta alpha per alpha, minimised over the grid
    obj = ts + betas * alphas[:, None]
    j = np.argmin(obj, axis=1)
    vals = obj[np.arange(len(alphas)), j]
    outside = (alphas < a_minus - 1e-12) | (alphas > a_plus + 1e-12)
    vals[outside] = math.nan
    flags = ["outside" if out else
             "endpoint" if k in (0, len(betas) - 1) else "interior"
             for out, k in zip(outside, j)]
    return SpectrumCurve(alphas, vals, flags, a_minus, a_plus, t0)
