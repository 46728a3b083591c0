"""Pressure, transfer operators, and identity-fiber partition sums.

Topological pressure of a locally constant potential is the log spectral
radius of its weighted transfer matrix over depth-windows. The restricted
(fiber) pressure over a quotient is the exponential growth rate of the
partition sums

    a_n = sum over admissible words of length n with image id of exp(S_w f).

For finite image groups that growth rate is P(f) itself: the lifted
transfer matrix on (window, element) pairs is irreducible for d >= 2 (the
loop images at a letter generate the group), and the Perron vector of the
full matrix, copied to every element, is a positive eigenvector of it, so
both share their Perron root (the finite case of Kesten's criterion for
group extensions, Stadlbauer 2013). For free abelian images Z^k it is exact
too: the large-deviation rate of the Z^k cocycle at 0, lambda_N(f) = min
over theta of P(f + <theta, v(last letter)>) with theta in the span of the
letter vectors v (Lalley 1989; Pollicott-Sharp 1994), found by Newton steps
in theta on the full window pattern. For free images (killed generators)
the library computes a_n exactly and extrapolates the rate from the series.

The partition sums a_n themselves come from two fiber engines. Both run
on f - max f and add n max f back to every log a_n, exactly, since a
length-n sup-sum has n window terms. Both step over extended states (the
last k-1 letters, from the empty context) with one set of per-letter
matrices, and complete the trailing windows at readout:

* free abelian images (and finite ones): forward DP over (state, ball
  element), normalised to peak 1 at every length. A prefix that can still
  end on a target t within n_max letters lies within (n_max + r)/2 of
  the identity, r = max(1, |t|): it is at most its length from the
  identity and at most the remaining length from t. So ball(R), R =
  floor((n_max + r)/2), built once per (quotient, radius) by
  Quotient.ball_table, indexes the DP exactly, and the mass leaving it is
  dead. On Z^k each letter also carries the optimal twist e^<theta*, v>,
  taken off again at readout, so the identity fiber stays near the peak
  of the normalised DP however strongly f drifts;
* free images (killed generators): excursion renewal on the image tree;
  paths decompose uniquely at their last visits to each node of the geodesic
  spine, giving first-passage matrix convolutions over window states, run
  in linear arithmetic on exponentially tilted series. Each series is one
  stacked array indexed by (survivor slot, length, state, state), so a
  length's convolutions are one batched GEMM over the length axis.

Every transfer matrix is pattern * exp(f): a 0/1 pattern with an edge from
window u[:-1] to window u[1:] for every admissible word u one letter
longer, whose column j carries the weight of the window it enters. Perron
roots are computed by power iteration with Collatz-Wielandt ratio
enclosures, checked every few steps, so every exact eigenvalue carries a
certified residual. One engine, _perron_batch, iterates the right and
left vectors of K weight rows on one pattern, one GEMM each per step.
pressure_rows runs it and, with window tables g, returns d/du P(f + u g)
along them, and the second derivatives on request (the twisted
pressure's theta-gradient and Hessian); the Gibbs check runs one row of
it, and perron_eigen (K = 1) serves only full_pressure. Pressure weights
are tilted to largest weight 1 and the tilt added back to log rho, so
P(f + c) = P(f) + c holds for any constant c.

scope_rows is the one place where a scope picks its pressure engine, on
every scope; restricted_pressure (and through it the diagnostics' rates)
and the free-energy roots all evaluate rows of that route.
"""

import math

import numpy as np

from .errors import NumericError, ResourceError, ValidationError
from .potentials import (Potential, _window_inverse, boundary_completion,
                         window_states)
from .quotients import (FiniteQuotient, FreeAbelianQuotient,
                        FreeKillQuotient, letter_shifts)
from .words import enumerate_words, is_reduced

NEG_INF = float("-inf")
# the renewal keeps the peak of every tilted level inside TILT_RANGE, far
# from both float limits, so products of two levels and a few steps stay
# representable; a single step weight may not leave e^(+-MAX_LOG_STEP)
TILT_RANGE = (1e-100, 1e100)
MAX_LOG_STEP = 700.0
# the ball DP refuses a target whose mass falls below this share of the peak
MASS_FLOOR = 1e-200
# default state budget of the fiber engines ([budgets] max_states)
FIBER_MAX_STATES = 50_000_000


# ---------------------------------------------------------------------------
# transfer matrices

def transfer_pattern(d, m):
    """0/1 edge pattern of the transfer matrix over m-windows: an edge from
    window u[:-1] to window u[1:] for every admissible (m+1)-word u. Every
    transfer matrix here is pattern * exp(f), column j carrying the weight
    of the window it enters."""
    index = window_states(d, m)[1]
    pattern = np.zeros((len(index), len(index)))
    for u in enumerate_words(d, m + 1):
        pattern[index[u[:-1]], index[u[1:]]] = 1.0
    return pattern


def _tilt(log_weights):
    """exp(log_weights - shift) with shift the maximum of each row, so the
    largest weight of every row is 1, and the shifts. A tilted matrix has
    log rho smaller by exactly the shift, whatever its range."""
    shift = log_weights.max(axis=-1, keepdims=True)
    return np.exp(log_weights - shift), shift[..., 0]


class TransferMatrix:
    """The window pattern of a potential's transfer matrix."""

    def __init__(self, pot):
        self.pattern = transfer_pattern(pot.d, pot.depth)


class LiftedTransferMatrix:
    """Transfer matrix of the group extension over a finite quotient:
    states are (window, element) pairs, transitions multiply the element by
    the image of the appended letter. Only its 0/1 ``pattern`` is kept; it
    serves inspection and the test of its irreducibility, and no pressure
    route solves on it.

    The matrix is irreducible. At depth 1 its graph is the (letter,
    element) graph, strongly connected because the loop images at a letter
    generate G (see FiniteQuotient._period_search); at depth m it is the
    m-block presentation of that graph, conjugate to it and so irreducible
    too. The full Perron vector, copied to every element, is a positive
    eigenvector of it, so its Perron root is that of the full matrix."""

    MAX_STATES = 20_000

    def __init__(self, pot, quotient):
        if not isinstance(quotient, FiniteQuotient):
            raise ValidationError(
                "lifted transfer matrices need a finite quotient")
        if pot.d != quotient.d:
            raise ValidationError("potential and quotient rank mismatch")
        order = quotient.table.shape[0]
        windows = window_states(pot.d, pot.depth)[0]
        W = len(windows)
        if W * order > self.MAX_STATES:
            raise ResourceError(
                "lifted transfer matrix too large; restricted_pressure "
                "needs no lift", required=W * order, budget=self.MAX_STATES)
        # flat state = window_idx * order + element; entering window j
        # multiplies the element by the image of its last letter
        src, dst = np.nonzero(transfer_pattern(pot.d, pot.depth))
        last = np.array([w[-1] for w in windows])[dst]
        shifts = letter_shifts(quotient, range(order))
        self.pattern = np.zeros((W * order, W * order))
        self.pattern[src[:, None] * order + np.arange(order),
                     dst[:, None] * order + shifts[last]] = 1.0


# ---------------------------------------------------------------------------
# Perron eigendata with certified enclosures

# power steps between enclosure checks, and before the iteration gives up
CHECK_STRIDE = 4
POWER_MAX_STEPS = 100_000


class PerronResult:
    """Perron root ``rho``; ``residual`` is the half-width of the
    Collatz-Wielandt enclosure."""

    def __init__(self, rho, residual, iterations):
        self.rho = rho
        self.residual = residual
        self.iterations = iterations


def _perron_batch(pattern, weights, tol, start=None):
    """Perron data of the K matrices M_k = pattern * weights[k] (column j
    scaled by weights[k, j]) by one batched power iteration.

    A step of every row is one GEMM (weights * V) @ pattern.T for the right
    iterates and one weights * (L @ pattern) for the left; each step is
    normalised to peak 1 per row. After every CHECK_STRIDE steps the
    Collatz-Wielandt ratios (M v)_i / v_i of each live row are checked; a
    row is done once they pinch rho(M_k) to relative width ``tol`` on both
    iterates. ``start`` (right, left) replaces the all-ones start vectors.

    Returns rho of each M_k (the enclosure midpoint of the right iterate),
    the half-widths of those enclosures, the power steps taken, and the
    right and left Perron vectors at peak 1."""
    K, n = weights.shape
    V, L = (np.ones((K, n)), np.ones((K, n))) if start is None else start[:2]
    W = weights
    rho, half = np.empty(K), np.empty(K)
    iterations = np.zeros(K, dtype=np.int64)
    right, left = np.empty((K, n)), np.empty((K, n))

    def normalised(X):
        peak = X.max(axis=1)
        if not math.isfinite(peak.max()):
            raise NumericError(f"power iteration overflowed the float "
                               f"range (largest entry {pattern.max():g})")
        if peak.min() <= 0:
            raise NumericError("transfer matrix has a zero row block")
        return X / peak[:, None], peak

    def width(X, X0, growth):
        ratios = growth[:, None] * X / X0
        lo, hi = ratios.min(axis=1), ratios.max(axis=1)
        if not math.isfinite((hi - lo).max()):
            raise NumericError(
                "power iteration cannot certify the Perron root: an iterate "
                "has zero entries (a reducible matrix, or weights spanning "
                "more than the float range)")
        return lo, hi, hi - lo <= tol * hi

    live = np.arange(K)
    steps = 0
    while live.size:
        todo = min(CHECK_STRIDE, POWER_MAX_STEPS - steps)
        for _ in range(todo):           # the last power step is checked
            V0, L0 = V, L
            V, gv = normalised((W * V) @ pattern.T)
            L, gl = normalised(W * (L @ pattern))
        steps += todo
        lo, hi, done = width(V, V0, gv)
        done &= width(L, L0, gl)[2]
        if done.any():
            rows = live[done]
            rho[rows] = 0.5 * (lo + hi)[done]
            half[rows] = 0.5 * (hi - lo)[done]
            iterations[rows] = steps
            right[rows], left[rows] = V[done], L[done]
            keep = ~done
            live, V, L, W = live[keep], V[keep], L[keep], W[keep]
        if live.size and steps >= POWER_MAX_STEPS:
            raise NumericError(
                f"power iteration did not converge in {POWER_MAX_STEPS} "
                f"iterations (enclosure width {(hi - lo)[~done].max():g}, "
                f"tol {tol:g})")
    return rho, half, iterations, right, left


def perron_eigen(M, tol=1e-13, *, weights=None):
    """Power iteration on M from the all-ones vector: the K = 1 case of the
    batched engine. With ``weights``, the matrix is M with column j scaled
    by weights[j], which is never formed.

    Stops when the Collatz-Wielandt ratios (M v)_i / v_i pinch the spectral
    radius of M to relative width ``tol``; that enclosure is the returned
    residual (exactness certificate). The enclosure holds for any positive
    iterate, so a periodic M, whose ratios need not pinch, raises
    NumericError rather than answer wrongly. Deterministic.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("perron_eigen needs a square matrix")
    weights = (np.ones(len(M)) if weights is None
               else np.asarray(weights, dtype=float))
    if weights.shape != (len(M),):
        raise ValidationError("perron_eigen needs one weight per column")
    rho, half, iterations, _, _ = _perron_batch(M, weights[None], tol)
    return PerronResult(float(rho[0]), float(half[0]), int(iterations[0]))


class PressureRows:
    """Pressures of K potentials on one scope, with the derivatives d/du
    P(f_k + u g) at u = 0 on the exact routes, which equal the equilibrium
    integrals of g (Ruelle, Thermodynamic Formalism): sum l g r / sum l r
    over the left and right Perron vectors. Fitted rows hold their fits."""

    def __init__(self, values, slopes, residuals, start, solves=1,
                 iterations=None, hessian=None, fits=None):
        self.values = values
        self.slopes = slopes            # None on fits or without g
        self.residuals = residuals      # error bound (fits: rms)
        self.start = start              # (right, left[, phi]); fits: None
        self.solves = solves            # batched eigen solves behind values
        self.iterations = iterations    # power steps per row
        self.hessian = hessian          # (K, c, c) second derivatives or None
        self.fits = fits                # per-row PressureResult of a fit


def _equilibrium_chain(pattern, weights, rho, right, left):
    """The equilibrium chains of K Perron solves of M_k = pattern *
    weights[k]: Q_ij = M_ij r_j / (rho r_i), row-stochastic, and its
    stationary law pi = l r / sum l r (Parry-Pollicott 1990)."""
    Q = (pattern * (weights * right)[:, None, :]
         / (rho[:, None] * right)[:, :, None])
    lr = left * right
    return Q, lr / lr.sum(axis=1)[:, None]


def _hessian(pattern, weights, rho, right, left, centred):
    """Second derivatives of P(f + u g) in u along the columns of g: the
    asymptotic covariance of the equilibrium chain Q with stationary law
    pi. With centred = g - pi.g, a = sum_n Q^n centred solves (I - Q + 1
    pi^T) a = centred, and H = X + X^T, X = pi.(centred (a - centred /
    2)), is exactly symmetric. The W x W solves go in blocks of at most
    2^20 entries (8 MB)."""
    step = max(1, 2 ** 20 // len(pattern) ** 2)
    if len(rho) > step:
        return np.concatenate([
            _hessian(pattern, *(x[i:i + step] for x in
                                (weights, rho, right, left, centred)))
            for i in range(0, len(rho), step)])
    Q, pi = _equilibrium_chain(pattern, weights, rho, right, left)
    a = np.linalg.solve(np.eye(len(pattern)) - Q + pi[:, None, :], centred)
    X = (pi[:, :, None] * centred).transpose(0, 2, 1) @ (a - 0.5 * centred)
    return X + X.transpose(0, 2, 1)


def pressure_rows(pattern, values, g=None, tol=1e-13, start=None,
                  hessian=False):
    """Pressures of the potentials values[k] (window tables) and slopes
    along the window table g, on the scope of ``transfer_pattern``, by one
    batched power iteration. Each row is tilted to largest weight 1 and
    its shift added back, so no row can overflow. A (W, c) table g gives
    (K, c) slopes, one column per direction, and with ``hessian`` the
    (K, c, c) second derivatives along those columns; without g slopes is
    None. start holds the right and left Perron vectors of every row."""
    weights, shift = _tilt(values)
    rho, half, iterations, right, left = _perron_batch(
        pattern, weights, tol, start)
    slopes = H = None
    if g is not None:
        lr = left * right
        slopes = ((lr @ g).T / lr.sum(axis=1)).T
        if hessian:
            H = _hessian(pattern, weights, rho, right, left,
                         g - slopes[:, None, :])
    return PressureRows(np.log(rho) + shift, slopes,
                        half / rho, (right, left),
                        iterations=iterations, hessian=H)


class PressureResult:
    """A pressure value with its provenance.

    ``method`` is "exact-eigenvalue" (sigma 0, residual = certified
    enclosure of the log eigenvalue), "exact-twisted" (sigma 0, residual =
    enclosure plus the certificate of the minimum over the twist) or
    "extrapolated" (sigma from the growth fit)."""

    def __init__(self, value, sigma, method, residual, detail=None):
        self.value = value
        self.sigma = sigma
        self.method = method
        self.residual = residual
        self.detail = {} if detail is None else detail


def full_pressure(pot, tol=1e-13):
    """log spectral radius of the transfer matrix; P(0) = log(2d-1).
    Solved on the pattern with its weights tilted to largest weight 1, so
    no second dense matrix is built."""
    tm = TransferMatrix(pot)
    weights, shift = _tilt(pot.values)
    pe = perron_eigen(tm.pattern, tol, weights=weights)
    return PressureResult(math.log(pe.rho) + float(shift), 0.0,
                          "exact-eigenvalue",
                          pe.residual / max(pe.rho, 1e-300),
                          {"iterations": pe.iterations,
                           "states": len(tm.pattern)})


# ---------------------------------------------------------------------------
# twisted pressure (free abelian quotients)

# Newton rounds before a twist minimum is declared uncertifiable
TWIST_MAX_ROUNDS = 100


def _letter_vectors(quotient):
    """(2d, k) float array of the letter images of a free abelian
    quotient."""
    return np.array([quotient.letter_image(a)
                     for a in range(quotient.alphabet.size)], dtype=float)


def twist_table(quotient, windows):
    """(B, G): B an orthonormal basis (r, k) of the span of the letter
    vectors (r is the rank of the image, 0 when every vector is 0), by
    modified Gram-Schmidt in numpy arithmetic, no LAPACK routine; and G[j]
    the coordinates in B of the vector of the last letter of windows[j].
    The twist by theta = B.T phi adds G @ phi to a window table."""
    letters = _letter_vectors(quotient)
    basis = []
    for v in letters:
        u = v
        for b in basis + basis:     # orthogonalised twice
            u = u - (u @ b) * b
        if u @ u > 1e-20 * (v @ v):
            basis.append(u / math.sqrt(u @ u))
    basis = np.array(basis).reshape(-1, letters.shape[1])
    return basis, (letters @ basis.T)[[w[-1] for w in windows]]


def twisted_rows(pattern, G, inverse, values, g=None, tol=1e-13,
                 start=None):
    """lambda_k = min over phi of P(values[k] + G phi) on the full window
    pattern, inverse[j] the index of the inverse of window j. Inversion
    negates the Z^k cocycle, so a row it leaves unchanged (values[k] ==
    values[k, inverse]) has P even and convex in phi, minimal at phi = 0:
    such rows take the full shift's one pressure_rows call, its enclosure
    their residual. The others take Newton steps in phi, all at once.

    Each round is one pressure_rows call over the live rows. Their slopes
    along the columns of G are the gradient of P in phi, and their second
    derivatives along them the Hessian H, read off the same Perron vectors.
    P is convex, so a row stops at a point where it was evaluated once
    |grad|^2 / (2 lambda_min(H)) <= tol; its residual is that bound plus
    the Perron enclosure. Otherwise it tries the Newton step cut to a trust
    radius, which doubles after a full step that lowers P and halves when
    a step does not, so a far minimum (a strongly drifting potential) is
    reached without overshoot. Returns PressureRows with the slopes along
    g (by the envelope theorem, the derivatives of the minima) and start =
    (right, left, phi), which also warm-starts rows of a later call."""
    K, W = values.shape
    r = G.shape[1]
    lead = 0 if g is None else 1        # slope columns before the gradient
    table = G if g is None else np.column_stack([g, G])
    phi = np.zeros((K, r)) if start is None else start[2].copy()
    # the last point each row accepted, and the step tried from it
    base = {"phi": phi.copy(), "P": np.zeros(K), "res": np.zeros(K),
            "grad": np.zeros((K, r)), "H": np.zeros((K, r, r))}
    step = np.zeros((K, r))            # 0 until a row tries a step
    radius = np.ones(K)
    values_out, residuals = np.empty(K), np.empty(K)
    slopes_out = None if g is None else np.empty(K)
    right, left = np.empty((K, W)), np.empty((K, W))
    sym = (values == values[:, inverse]).all(axis=1)
    if sym.any():
        rows = pressure_rows(pattern, values[sym], g, tol, None if start is
                             None else tuple(v[sym] for v in start[:2]))
        values_out[sym], residuals[sym] = rows.values, rows.residuals
        right[sym], left[sym], phi[sym] = rows.start[0], rows.start[1], 0.0
        if g is not None:
            slopes_out[sym] = rows.slopes
    live, solves = np.flatnonzero(~sym), int(sym.any())
    vecs = None if start is None else tuple(v[live] for v in start[:2])
    while live.size:
        if solves == TWIST_MAX_ROUNDS + sym.any():
            raise NumericError(
                f"twisted pressure: the gradient certificate did not pass "
                f"in {TWIST_MAX_ROUNDS} Newton rounds")
        solves += 1
        rows = pressure_rows(pattern, values[live] + phi[live] @ G.T,
                             table, tol, start=vecs, hessian=True)
        P, res, vecs = rows.values, rows.residuals, rows.start

        # a tried step is kept when P fell (Armijo, within the enclosures)
        drop = np.einsum("ij,ij->i", base["grad"][live], step[live])
        length = np.linalg.norm(step[live], axis=1)
        keep = (length == 0) | (P <= base["P"][live] + 1e-4 * drop + res
                                + base["res"][live])
        radius[live[keep & (length >= radius[live] * (1 - 1e-12))]] *= 2
        radius[live[~keep]] = 0.5 * length[~keep]
        acc = live[keep]
        base["phi"][acc] = phi[acc]
        for name, val in (("P", P), ("res", res),
                          ("grad", rows.slopes[:, lead:]),
                          ("H", rows.hessian[:, lead:, lead:])):
            base[name][acc] = val[keep]

        # the gradient certificate at every row's base point
        grad, hess = base["grad"][live], base["H"][live]
        g2 = (grad ** 2).sum(axis=1)
        lam = (np.linalg.eigvalsh(hess).min(axis=1) if r
               else np.full(len(live), np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(g2 == 0, 0.0,
                             np.where(lam > 0, g2 / (2 * lam), np.inf))
        done = keep & (bound <= tol)
        fin = live[done]
        values_out[fin] = P[done]
        residuals[fin] = res[done] + bound[done]
        right[fin], left[fin] = vecs[0][done], vecs[1][done]
        if g is not None:
            slopes_out[fin] = rows.slopes[done, 0]
        live, vecs = live[~done], tuple(v[~done] for v in vecs)

        # Newton step from the base (steepest descent where the Hessian
        # is not positive), cut to the trust radius
        grad, hess, g2, lam = grad[~done], hess[~done], g2[~done], lam[~done]
        d = -grad / np.sqrt(g2)[:, None] * radius[live, None]
        newton = lam > 0
        if newton.any():
            d[newton] = -np.linalg.solve(hess[newton],
                                         grad[newton, :, None])[..., 0]
        d *= np.minimum(1.0, radius[live] / np.linalg.norm(d, axis=1))[:, None]
        step[live] = d
        phi[live] = base["phi"][live] + d
    return PressureRows(values_out, slopes_out, residuals,
                        (right, left, phi), solves)


# ---------------------------------------------------------------------------
# the pressure route of each scope

def scope_rows(d, depth, quotient=None, g=None, tol=1e-13, n_max=40,
               max_states=FIBER_MAX_STATES):
    """The pressure route of a scope: (rows, method, result).
    rows(values, start=None) is the PressureRows of the depth-``depth``
    window tables ``values`` with slopes along g, and result(rows, k) the
    PressureResult of row k. The full shift and finite quotients run
    pressure_rows on the full window pattern, free abelian quotients
    twisted_rows on it, both exact (sigma 0). Free-kill quotients fit the
    identity-fiber series of each row up to ``n_max`` under ``max_states``
    (extrapolated_pressure): their rows hold the fits, with no slopes and
    no start."""
    if quotient is not None and quotient.d != d:
        raise ValidationError("potential and quotient rank mismatch")
    if isinstance(quotient, FreeKillQuotient):
        def fitted(values, start=None):
            fits = [extrapolated_pressure(Potential(d, depth, v), quotient,
                                          n_max, max_states) for v in values]
            return PressureRows(np.array([f.value for f in fits]), None,
                                np.array([f.residual for f in fits]), None,
                                fits=fits)
        return fitted, "extrapolated", lambda rows, k: rows.fits[k]
    pattern = transfer_pattern(d, depth)
    if isinstance(quotient, FreeAbelianQuotient):
        basis, G = twist_table(quotient, window_states(d, depth)[0])
        inverse = _window_inverse(d, depth)
        method = "exact-twisted"

        def evaluate(values, start=None):
            return twisted_rows(pattern, G, inverse, values, g, tol, start)

        def detail(rows, k):
            return {"theta": (rows.start[2][k] @ basis).tolist(),
                    "eigen_solves": rows.solves, "states": len(pattern)}
    elif quotient is None or isinstance(quotient, FiniteQuotient):
        # finite quotients too: the full Perron vector lifts to a positive
        # eigenvector of the irreducible lift, so lambda_N = P(f) exactly
        method = "exact-eigenvalue"

        def evaluate(values, start=None):
            return pressure_rows(pattern, values, g, tol, start)

        def detail(rows, k):
            return {"iterations": int(rows.iterations[k]),
                    "states": len(pattern)}
    else:
        raise ValidationError(
            f"unsupported quotient type {type(quotient).__name__}")
    return evaluate, method, lambda rows, k: PressureResult(
        float(rows.values[k]), 0.0, method, float(rows.residuals[k]),
        detail(rows, k))


# ---------------------------------------------------------------------------
# fiber partition sums

class FiberSeries:
    """log a_n for n = 1..n_max (NEG_INF where the fiber is empty)."""

    def __init__(self, n_max, log_values, period):
        self.n_max = n_max
        self.log_values = log_values
        self.period = period
        self.meta = {}          # always empty; bench/tracer.py reads it

    @property
    def lengths(self):
        return np.arange(1, self.n_max + 1)

    @property
    def values(self):
        """a_n as floats; raises NumericError when one exceeds the float
        range (log_values still holds it)."""
        with np.errstate(over="ignore"):
            vals = np.exp(self.log_values)
        over = np.flatnonzero(np.isposinf(vals))
        if len(over):
            i = int(over[0])
            raise NumericError(
                f"a_{i + 1} = exp({self.log_values[i]:.6f}) exceeds the "
                f"float range; read log_values instead")
        return vals


def fiber_partition(pot, quotient, n_max, target=None,
                    max_states=FIBER_MAX_STATES):
    """Exact a_n = sum over length-n words with image ``target`` (default
    identity) of exp(S_w f), as a FiberSeries of logs. Either engine
    raises ResourceError before it allocates more than ``max_states``
    entries (ball DP states, renewal series)."""
    res = fiber_partition_many(pot, quotient, n_max,
                               [quotient.identity if target is None
                                else target], max_states=max_states)
    return next(iter(res.values()))


def fiber_partition_many(pot, quotient, n_max, targets,
                         max_states=FIBER_MAX_STATES):
    if pot.d != quotient.d:
        raise ValidationError("potential and quotient rank mismatch")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    targets = list(targets)
    p = quotient.period()
    if n_max < p:
        raise ValidationError(
            f"n_max={n_max} is below the fiber period {p}; no return "
            f"word fits")
    # a length-n sup-sum has n window terms, so the engines run on f - max f
    # (window weights and completions at most 1) and n max f goes back
    top = pot.max
    base = Potential(pot.d, pot.depth, pot.values - top)
    if isinstance(quotient, FreeKillQuotient):
        logs = _fiber_renewal(base, quotient, n_max, targets, max_states)
    elif isinstance(quotient, (FiniteQuotient, FreeAbelianQuotient)):
        logs = _fiber_ball_dp(base, quotient, n_max, targets, max_states)
    else:
        raise ValidationError(
            f"unsupported quotient type {type(quotient).__name__}")
    logs = logs + top * np.arange(1, n_max + 1)
    return {t: FiberSeries(n_max, logs[i], p) for i, t in enumerate(targets)}


# -- tilted steps over extended window states (both fiber engines) --------

def _extended_states(d, cap):
    """Words of length <= cap (the DP window contexts), lexicographic by
    (length, letters); state 0 is the empty context."""
    states = [()]
    for n in range(1, cap + 1):
        states.extend(window_states(d, n)[0])
    return states, {s: i for i, s in enumerate(states)}


def _step_matrices(pot, c=0.0, twist=None):
    """Per-letter transition matrices over extended window states, tilted
    by e^(-c) and stacked as one (2d, S, S) array. Entry [a, s, s'] is
    exp(f(completed window) + twist[a] - c) when appending letter a to
    context s is admissible and completes a window, exp(twist[a] - c)
    before the first window completes, 0 otherwise."""
    d, k = pot.d, pot.depth
    twist = [0.0] * (2 * d) if twist is None else twist.tolist()
    cap = max(k - 1, 1)
    states, sindex = _extended_states(d, cap)
    S = len(states)
    mats = np.zeros((2 * d, S, S))
    for a in range(2 * d):
        for i, s in enumerate(states):
            if s and a == (s[-1] ^ 1):
                continue
            grown = s + (a,)
            s2 = grown if len(grown) <= cap else grown[-cap:]
            val = (pot.value(grown[-k:]) if len(grown) >= k else 0.0) \
                + twist[a]
            if abs(val - c) > MAX_LOG_STEP:
                raise NumericError(
                    f"potential range too wide for the renewal and ball DP: "
                    f"step weight e^{val - c:g} leaves the float range "
                    f"(max f - min f beyond about {MAX_LOG_STEP:g})")
            mats[a, i, sindex[s2]] = math.exp(val - c)
    return states, sindex, mats


# -- ball DP (finite and free abelian quotients) ---------------------------

def _fiber_ball_dp(pot, quotient, n_max, targets, max_states):
    """Forward DP on the steps over (extended state, ball element): A[s, g]
    is the weight of the length-n words in context s with image g, from
    mass 1 at (empty context, identity). Levels are normalised to peak 1;
    the log peak goes to the log scale.

    The length-k prefix of a length-n word with image t has an image g
    with |g| <= k and d(g, t) <= n - k <= n_max - k, so |g| <= (n_max +
    r) / 2 for r = max(1, largest target length): ball(R), R = floor((n_max
    + r) / 2), holds every prefix that can still end on a target. Mass
    stepping out of it at length n lands at |g| = R + 1, at least R + 1 - r
    letters from every target, and is dead once n + R + 1 - r > n_max.

    On a free abelian quotient every letter a also carries e^<theta*, v(a)>,
    theta* the minimiser of the twisted pressure: a word with image g then
    weighs e^<theta*, g> more, which the readout takes off again. The
    twisted walk has no drift, so the identity fiber stays near the peak
    mass, however strongly f alone drifts."""
    theta = twist = None
    # inversion negates the cocycle, so inverse-symmetric f has theta* = 0
    if (isinstance(quotient, FreeAbelianQuotient)
            and not pot.is_inverse_symmetric()):
        theta = np.array(restricted_pressure(pot, quotient).detail["theta"])
        twist = _letter_vectors(quotient) @ theta
    states, sindex, steps = _step_matrices(pot, twist=twist)
    r = max(1, quotient.word_length(targets, n_max, max_states))
    radius = (n_max + r) // 2
    # shifts[l, g] = index of elements[g] * img(l), -1 outside the ball
    elements, eindex, shifts = quotient.ball_table(
        radius, max_elements=max_states)
    S, B = len(states), len(elements)
    if S * B > max_states:
        raise ResourceError("fiber DP state space exceeds budget",
                            required=S * B, budget=max_states)
    # appending a lands in the states ending in a, so rows dest[a] of
    # K.T @ A are fed by a alone; they move along the group by img(a):
    # the new mass at h is the flow at h img(a)^-1
    K = steps.sum(axis=0)
    dest = [np.array([i for i, s in enumerate(states) if s[-1:] == (a,)])
            for a in range(2 * pot.d)]
    leaves = [np.flatnonzero(row < 0) for row in shifts]
    bnd = np.exp([boundary_completion(pot, s) for s in states])

    out = np.full((len(targets), n_max), NEG_INF)
    A = np.zeros((S, B + 1))      # column B: a zero pad, read by shift -1
    A[sindex[()], eindex[quotient.identity]] = 1.0
    logscale = 0.0
    untwist = [0.0 if theta is None else float(theta @ np.asarray(t, float))
               for t in targets]
    # mass leaving the ball is dropped; up to this length it could still
    # reach a target, so there it must be zero
    last_live = n_max + r - radius - 1
    for n in range(1, n_max + 1):
        flow = K.T @ A
        A = np.zeros_like(A)
        for a, rows in enumerate(dest):
            fed = flow[rows]
            if n <= last_live and fed[:, leaves[a]].any():
                raise NumericError("fiber DP dropped live mass; ball "
                                   "indexing is inconsistent")
            A[rows, :B] = fed[:, shifts[a ^ 1]]
        peak = A.max()
        if peak <= 0:
            break        # no admissible continuations carry weight: done
        A /= peak
        logscale += math.log(peak)
        for i, t in enumerate(targets):
            mass = float(A[:, eindex[t]] @ bnd)
            if 0 < mass < MASS_FLOOR:
                # the states feeding t sank below the float range of the
                # peak-normalised DP and are lost without a trace
                raise NumericError(
                    f"fiber DP lost precision: target {t!r} holds "
                    f"{mass:.1e} of the peak mass at length {n}")
            if mass > 0:
                out[i, n - 1] = logscale + math.log(mass) - untwist[i]
    return out


# -- excursion renewal on the image tree (free-kill quotients) -------------

def _fiber_renewal(pot, quotient, n_max, targets, max_states):
    """Excursion renewal in linear arithmetic on tilted series: every
    stored length-n term is the true one times e^(-c n), from c = 0. A tilt
    is multiplicative in length, so the convolutions stay exact. When the
    peak of a new level n leaves TILT_RANGE, c moves by log(peak)/n, level
    k is rescaled by e^(-k log(peak)/n) and the steps are rebuilt; c n is
    added back at readout.

    Each series is one stacked array over (slot, length, S, S): G holds
    the stay blocks B_x below each survivor edge x in slots 0..X-1 and the
    origin blocks A in slot X; E[x, i] sums the length-i excursions D_y
    that slot x may start (y != x^-1 for B_x, every y for A) through a 0/1
    mask, so it is a sum of non-negative terms. Level n is then
        G[:, n] = K G[:, n-1] + sum_{i=2..n} E[:, i] G[:, n-i]
    with K the sum of the killed steps, the convolution taken as one GEMM
    over the length axis, batched over slots. G holds (X+1)(n_max+1)S^2
    entries, the renewal's analogue of the ball DP's S B, and may not
    exceed ``max_states``."""
    survivor_set = set(quotient.survivor_letters)
    for t in targets:
        w = tuple(t)
        if not (is_reduced(w) and set(w) <= survivor_set):
            raise ValidationError(
                f"target {t!r} is not a reduced survivor word")
    c = 0.0
    states, sindex, steps = _step_matrices(pot)
    S = len(states)
    survivors = np.array(quotient.survivor_letters, dtype=np.int64)
    killed = list(quotient.killed_letters)
    X = len(survivors)
    size = (X + 1) * (n_max + 1) * S * S
    if size > max_states:
        raise ResourceError("fiber renewal series exceed budget",
                            required=size, budget=max_states)

    def split(steps):
        """Descent and ascent steps per survivor, and the killed sum K."""
        return (steps[survivors], steps[survivors ^ 1],
                steps[killed].sum(axis=0))

    up, down, K = split(steps)
    # mask[x, y] = 1 when slot x may start an excursion via survivor y
    mask = np.vstack([survivors[None, :] != (survivors[:, None] ^ 1),
                      np.ones((1, X), dtype=bool)]).astype(float)

    G = np.zeros((X + 1, n_max + 1, S, S))
    G[:, 0] = np.eye(S)
    E = np.zeros_like(G)
    for n in range(1, n_max + 1):
        G[:, n] = K @ G[:, n - 1]
        if n >= 2:
            # excursions of length n: descend via y, stay n-2, ascend
            D = up @ G[:X, n - 2] @ down
            E[:, n] = (mask @ D.reshape(X, S * S)).reshape(X + 1, S, S)
            conv = (E[:, n:1:-1].transpose(0, 2, 1, 3)
                    .reshape(X + 1, S, (n - 1) * S)
                    @ G[:, :n - 1].reshape(X + 1, (n - 1) * S, S))
            G[:, n] += conv
        peak = G[:, n].max()
        if peak > 0 and not TILT_RANGE[0] <= peak <= TILT_RANGE[1]:
            rate = math.log(peak) / n
            c += rate
            scale = np.exp(-rate * np.arange(1, n + 1))[:, None, None]
            G[:, 1:n + 1] *= scale
            E[:, 1:n + 1] *= scale
            steps = _step_matrices(pot, c)[2]
            up, down, K = split(steps)

    bnd = np.exp([boundary_completion(pot, s) for s in states])
    start = sindex[()]
    slot = {int(x): i for i, x in enumerate(survivors)}

    lengths = np.arange(1, n_max + 1)
    out = np.full((len(targets), n_max), NEG_INF)
    for ti, t in enumerate(targets):
        # row `start` of A convolved with one (step + stay) block per spine
        # letter; only that row reaches the readout
        chain = G[X, :, start]
        for x in tuple(t):
            step_stay = steps[x] @ G[slot[x], :n_max]    # lengths 1..n_max
            nxt = np.zeros_like(chain)
            for n in range(1, n_max + 1):
                nxt[n] = (chain[:n].reshape(n * S)
                          @ step_stay[n - 1::-1].reshape(n * S, S))
            chain = nxt
        s = chain[1:] @ bnd
        with np.errstate(divide="ignore"):
            out[ti] = np.where(s > 0, np.log(s) + c * lengths, NEG_INF)
    return out


# ---------------------------------------------------------------------------
# growth-rate extraction

class GrowthFit:
    """Tail fit of log a_n = c + lambda n - gamma log n (see _tail_fit).

    The log n term absorbs the polynomial prefactor of the fiber series
    (C lambda^n n^-gamma); without it the slope estimate is biased by
    -gamma/n_bar, which is far larger than the target accuracy at the
    default n_max. sigma is max(regression stderr, half-window
    sensitivity), 0 for an exact lambda held in the fit; the stderr of a
    coefficient is sqrt(s2 [(X^T X)^-1]_ii), s2 the residual sum of
    squares over m - 3 for m points, and rms is that sum over m, rooted."""

    def __init__(self, lam, sigma, gamma, gamma_sigma, n_points, window,
                 rms):
        self.lam = lam
        self.sigma = sigma
        self.gamma = gamma
        self.gamma_sigma = gamma_sigma
        self.n_points = n_points
        self.window = window
        self.rms = rms


# the fewest nonzero terms a tail fit accepts
MIN_FIT_POINTS = 4


def _tail_fit(series, lam=None):
    """The one tail fit of a fiber series, behind growth_rate and the
    divergence probe: least squares of log a_n = c + lambda n - gamma log n
    over the nonzero terms past the leading quarter; with the
    exact rate ``lam`` held there, of log a_n - lam n = c - gamma log n +
    c1/n instead, and sigma 0. Each sigma dominates the regression stderr
    and the change of its estimate on the tail half of the window.

    The three-column least squares runs on numpy arithmetic alone, with no
    LAPACK routine: modified Gram-Schmidt on the columns of [X y], a
    backward-stable least-squares method (Bjorck, BIT 7, 1967), gives X =
    QR, Q^T y in the last column of R and the residual as what is left of
    y. R^-1 is a 3 x 3 back substitution; the coefficients are R^-1 Q^T y,
    and since (X^T X)^-1 = R^-1 R^-T, the diagonal behind each stderr is a
    row sum of (R^-1)^2. Four distinct lengths give (1, log n, n) and (1,
    log n, 1/n) full column rank, so the diagonal of R is positive."""
    finite = np.isfinite(series.log_values)
    ns = series.lengths[finite].astype(float)
    ys = series.log_values[finite]
    if len(ns) < MIN_FIT_POINTS:
        raise NumericError(
            f"growth fit needs >= {MIN_FIT_POINTS} nonzero partition "
            f"values, got {len(ns)}")
    start = min(len(ns) // 4, len(ns) - MIN_FIT_POINTS)
    ns, ys = ns[start:], ys[start:]
    if lam is not None:
        ys = ys - lam * ns

    def fit(ns, ys):
        # rows 1, log n, then n (rate fitted) or 1/n (rate held), and ys;
        # Gram-Schmidt leaves R[:, 3] = Q^T ys and the residual in row 3
        A = np.array([np.ones(len(ns)), np.log(ns),
                      ns if lam is None else 1.0 / ns, ys])
        R = [[0.0] * 4 for _ in range(3)]
        for k in range(3):
            R[k][k] = math.sqrt(float((A[k] * A[k]).sum()))
            A[k] /= R[k][k]
            dots = (A[k + 1:] * A[k]).sum(axis=1)
            A[k + 1:] -= dots[:, None] * A[k]
            R[k][k + 1:] = dots.tolist()
        # R^-1 by back substitution
        inv = [[0.0] * 3 for _ in range(3)]
        for i in (2, 1, 0):
            inv[i][i] = 1.0 / R[i][i]
            for j in range(i + 1, 3):
                inv[i][j] = -sum(R[i][m] * inv[m][j]
                                 for m in range(i + 1, j + 1)) / R[i][i]
        coef = np.array([sum(inv[i][j] * R[j][3] for j in range(i, 3))
                         for i in range(3)])
        ss = float((A[3] * A[3]).sum())
        s2 = ss / max(len(ns) - 3, 1)
        err = np.array([math.sqrt(s2 * sum(x * x for x in row))
                        for row in inv])
        return coef, err, math.sqrt(ss / len(ns))

    coef, err, rms = fit(ns, ys)
    half = len(ns) // 2
    if len(ns) - half >= MIN_FIT_POINTS:
        err = np.maximum(err, np.abs(fit(ns[half:], ys[half:])[0] - coef))
    rate, rate_err = ((float(coef[2]), float(err[2])) if lam is None
                      else (float(lam), 0.0))
    return GrowthFit(rate, rate_err, float(-coef[1]), float(err[1]),
                     len(ns), (int(ns[0]), int(ns[-1])), rms)


def growth_rate(series):
    """Growth rate of a fiber series with uncertainty: _tail_fit with
    lambda fitted."""
    return _tail_fit(series)


def restricted_pressure(pot, quotient, n_max=40, tol=1e-13,
                        max_states=FIBER_MAX_STATES):
    """The scope's pressure: row 0 of its scope_rows route. ``n_max`` and
    ``max_states`` bound the fiber series that free-kill quotients fit."""
    evaluate, _, result = scope_rows(pot.d, pot.depth, quotient, tol=tol,
                                     n_max=n_max, max_states=max_states)
    return result(evaluate(pot.values[None]), 0)


def extrapolated_pressure(pot, quotient, n_max=40,
                          max_states=FIBER_MAX_STATES):
    """The growth fit of the identity-fiber series up to n_max as a
    PressureResult, on any quotient."""
    series = fiber_partition(pot, quotient, n_max, max_states=max_states)
    fit = growth_rate(series)
    return PressureResult(fit.lam, fit.sigma, "extrapolated", fit.rms,
                          {"gamma": fit.gamma, "gamma_sigma": fit.gamma_sigma,
                           "n_points": fit.n_points, "window": fit.window,
                           "n_max": n_max, "period": series.period})

