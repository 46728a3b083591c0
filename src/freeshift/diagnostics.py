"""Numerical verdicts for the amenability/dimension dichotomies.

Every report packages the quantities it computed (with provenance: exact
eigenvalue or extrapolated, and sigma), the inequality slacks, and a
classification derived from those slacks alone, so a report can re-derive
its own verdict. Decision thresholds are sigma_factor sigma (default 3)
plus an absolute margin for strict claims; extrapolation noise and genuine
spectral gaps are far apart in the bundled examples, but the margins keep
the two honest.

The divergence probe and the symmetric-on-average statistic are finite-n
surrogates for properties of infinite series; they are labeled as
heuristics in their notes, not proofs.
"""

import math

import numpy as np

from .errors import NumericError, UndefinedRatioError, ValidationError
from .pressure import (FIBER_MAX_STATES, _equilibrium_chain,
                       _perron_batch, _tail_fit, fiber_partition,
                       fiber_partition_many, full_pressure,
                       restricted_pressure, transfer_pattern)
from .spectra import DEFAULT_U_TOL, delta, legendre

ABS_MARGIN = 1e-3
SIGMA_FACTOR = 3.0
# noise floor for sigma-based tolerances: exact-eigenvalue results carry
# sigma 0 but still hold eigensolver (~1e-13) and root-finder noise (t within
# u_tol ~1e-10 of the root)
NOISE_FLOOR = 1e-8


def _classify(rule, slacks):
    if rule == "amenability":
        gaps = [s for s in slacks if s["name"].startswith("gap")]
        if any(s["slack"] > s["tol"] + ABS_MARGIN for s in gaps):
            return "non-amenable detected"
        if gaps and all(s["slack"] <= s["tol"] for s in gaps):
            return "consistent with amenable"
        return "inconclusive"
    if rule == "bound":
        if not slacks:
            return "inconclusive"
        ok = all(s["slack"] >= -s["tol"] for s in slacks)
        return "holds" if ok else "violated"
    if rule == "probe":
        g = next(s for s in slacks if s["name"] == "gamma-1")
        return ("divergence-type (gamma <= 1)" if g["slack"] <= 0
                else "convergence-type (gamma > 1)")
    if rule == "gibbs":
        ok = all(s["slack"] >= -s["tol"] for s in slacks)
        return "verified" if ok else "failed"
    raise ValidationError(f"unknown verdict rule {rule!r}")


class VerdictReport:
    """Self-verifying report: the classification is a pure function of the
    stored slacks, so verify() re-derives it from them."""

    def __init__(self, rule, quantities, slacks, classification, notes=None):
        self.rule = rule
        self.quantities = quantities
        self.slacks = slacks
        self.classification = classification
        self.notes = [] if notes is None else notes

    def verify(self):
        return _classify(self.rule, self.slacks) == self.classification

    def to_dict(self):
        return {
            "rule": self.rule,
            "verdict": self.classification,
            "quantities": [dict(q) for q in self.quantities],
            "slacks": [dict(s) for s in self.slacks],
            "notes": list(self.notes),
        }


def _report(rule, quantities, slacks, notes):
    return VerdictReport(rule, quantities, slacks, _classify(rule, slacks),
                         notes)


def _qty(name, value, sigma, method):
    return {"quantity": name, "value": float(value), "sigma": float(sigma),
            "method": method}


# ---------------------------------------------------------------------------

def _curve_pair(curves):
    full, restricted = curves
    if not np.array_equal(full.betas, restricted.betas):
        raise ValidationError(
            "full and restricted free-energy curves need the same betas")
    return full, restricted


def _symmetric_betas(betas, psi, zeta):
    """Mask of the betas at which every beta psi + t zeta is
    inverse-symmetric: all of them when psi (None for zero) and zeta are,
    beta = 0 alone when only zeta is, none when zeta is not. The
    dichotomies are claimed for symmetric potentials only: for an
    asymmetric one on Z^k the drift of the optimal twist puts lambda_N
    below P on an amenable quotient."""
    if not zeta.is_inverse_symmetric():
        return np.zeros(len(betas), dtype=bool)
    if psi is None or psi.is_inverse_symmetric():
        return np.ones(len(betas), dtype=bool)
    return np.asarray(betas) == 0.0


def _skipped_note(what, betas):
    return (f"{what} not compared: beta psi + t zeta is not "
            f"inverse-symmetric at beta = "
            f"{', '.join(f'{b:g}' for b in betas)}, and the dichotomies are "
            f"claimed for symmetric potentials only")


def amenability_report(quotient, curves, psi, zeta,
                       sigma_factor=SIGMA_FACTOR):
    """t_N(beta) vs t(beta) per grid point of ``curves``, the pair (full,
    restricted) of free-energy curves of ``psi`` (None for zero) and
    ``zeta`` on the same betas.

    For inverse-symmetric potentials, amenable quotients force equality
    (gap 0); a gap beyond noise plus the absolute margin is a
    non-amenability certificate at the numeric level. Gaps are compared
    only at the betas where beta psi + t zeta is inverse-symmetric
    (_symmetric_betas); with none left the verdict is inconclusive.
    """
    full, restricted = _curve_pair(curves)
    compared = _symmetric_betas(full.betas, psi, zeta)
    quantities, slacks = [], []
    for pf, pn, use in zip(full.points, restricted.points, compared):
        quantities.append(_qty(f"t(beta={pf.beta:g})", pf.t, pf.sigma,
                               pf.method))
        quantities.append(_qty(f"t_N(beta={pn.beta:g})", pn.t, pn.sigma,
                               pn.method))
        if use:
            slacks.append({"name": f"gap(beta={pf.beta:g})",
                           "slack": pf.t - pn.t,
                           "tol": sigma_factor * (pf.sigma + pn.sigma)
                           + NOISE_FLOOR})
    notes = [f"quotient: {quotient.describe()}",
             "gap = t - t_N; amenable quotients force gap 0 "
             "(equality of full and restricted pressure)"]
    if not compared.all():
        notes.append(_skipped_note("gap", full.betas[~compared]))
    return _report("amenability", quantities, slacks, notes)


def half_bound_check(quotient, zeta, curves=None, psi=None, n_max=40,
                     sigma_factor=SIGMA_FACTOR, u_tol=DEFAULT_U_TOL,
                     tol=1e-13):
    """delta_N >= delta/2, and with ``curves`` (the pair of full and
    restricted free-energy curves of ``psi``, None for zero, and this zeta,
    on the same betas) also b_N(alpha) >= b(alpha)/2 on the common interior
    alpha range; reports every slack, classifies on the minimum. Like the
    amenability report it compares symmetric potentials only: the delta
    slack needs an inverse-symmetric zeta, the spectrum slacks a symmetric
    beta psi + t zeta at every beta; with no slack left the verdict is
    inconclusive.

    When the curves contain beta = 0, their points there are taken as delta
    and delta_N (t(0) does not depend on psi) and are not solved again:
    then ``n_max``, ``u_tol`` and ``tol`` are not used, and the curves must
    have been solved for this zeta and quotient, which is not checked (a
    FreeEnergyCurve does not record them)."""
    roots = None
    if curves is not None:
        full_curve, n_curve = _curve_pair(curves)
        zero = np.flatnonzero(full_curve.betas == 0.0)
        if zero.size:
            roots = full_curve.points[zero[0]], n_curve.points[zero[0]]
    d_full, d_n = roots or (
        delta(zeta, u_tol=u_tol, tol=tol),
        delta(zeta, quotient=quotient, n_max=n_max, u_tol=u_tol, tol=tol))
    quantities = [
        _qty("delta", d_full.t, d_full.sigma, d_full.method),
        _qty("delta_N", d_n.t, d_n.sigma, d_n.method),
    ]
    slacks = []
    notes = [f"quotient: {quotient.describe()}"]
    if zeta.is_inverse_symmetric():
        slacks.append({"name": "delta_N - delta/2",
                       "slack": d_n.t - d_full.t / 2,
                       "tol": sigma_factor * (d_n.sigma + d_full.sigma / 2)
                       + NOISE_FLOOR})
    else:
        notes.append(_skipped_note("delta_N - delta/2", [0.0]))
    if curves is not None:
        skipped = full_curve.betas[
            ~_symmetric_betas(full_curve.betas, psi, zeta)]
        if skipped.size:
            notes.append(_skipped_note("spectrum", skipped))
        else:
            spec_full = legendre(full_curve)
            spec_n = legendre(n_curve, spec_full.alphas)
            tol_b = (sigma_factor * (float(n_curve.sigmas.max())
                                     + float(full_curve.sigmas.max()) / 2)
                     + NOISE_FLOOR)
            used = 0
            for a, bf, ff, bn, fn in zip(
                    spec_full.alphas, spec_full.b_values, spec_full.flags,
                    spec_n.b_values, spec_n.flags):
                if ff != "interior" or fn != "interior":
                    continue
                used += 1
                slacks.append({"name": f"b_N - b/2 (alpha={a:.6g})",
                               "slack": float(bn - bf / 2), "tol": tol_b})
            notes.append(f"spectrum compared on {used} common interior "
                         f"alpha points")
    return _report("bound", quantities, slacks, notes)


def pressure_inequality_check(quotient, pot, n_max=40,
                              sigma_factor=SIGMA_FACTOR, tol=1e-13,
                              max_states=FIBER_MAX_STATES):
    """2 P(f, fiber) >= P(2f) for symmetric potentials.

    Precondition: the table is invariant under inversion symmetry (the
    letter involution composed with window reversal). That is a checkable
    sufficient condition for the symmetry hypothesis of the inequality,
    which itself quantifies over infinitely many scales; the note records
    which condition was verified.
    """
    if not pot.is_inverse_symmetric():
        raise ValidationError(
            "potential is not inverse-symmetric; the doubled-pressure "
            "inequality is only claimed for symmetric potentials")
    res = restricted_pressure(pot, quotient, n_max=n_max, tol=tol,
                              max_states=max_states)
    doubled = full_pressure(pot * 2.0, tol=tol)
    slack = 2 * res.value - doubled.value
    quantities = [
        _qty("restricted_pressure(f)", res.value, res.sigma, res.method),
        _qty("full_pressure(2f)", doubled.value, doubled.sigma,
             doubled.method),
    ]
    slacks = [{"name": "2 P_N(f) - P(2f)", "slack": slack,
               "tol": sigma_factor * (2 * res.sigma + doubled.sigma)
               + NOISE_FLOOR}]
    notes = [f"quotient: {quotient.describe()}",
             "symmetry check: table invariant under inversion "
             "(sufficient condition; the asymptotic-on-average property "
             "is not finitely checkable)"]
    return _report("bound", quantities, slacks, notes)


def divergence_probe(quotient, pot, n_max=60,
                     max_states=FIBER_MAX_STATES):
    """Polynomial-correction exponent of the fiber series.

    Fits a_n e^(-n lambda) ~ C n^(-gamma) on the tail and classifies
    divergence-type (gamma <= 1) versus convergence-type (gamma > 1) by the
    point estimate. lambda is the restricted pressure at this n_max. An
    exact one is held in a fit of c - gamma log n + c1/n; an
    "extrapolated" one (free-kill quotients) is fitted again with gamma,
    whose sigma (the verdict's tolerance) then carries its error.
    The true divergence type is a statement about an infinite series; this
    is a labeled heuristic, not a proof.
    """
    series = fiber_partition(pot, quotient, n_max, max_states=max_states)
    terms = int(np.isfinite(series.log_values).sum())
    if terms < 6:
        raise NumericError(
            f"divergence probe needs >= 6 nonzero fiber terms, got {terms}")
    rate = restricted_pressure(pot, quotient, n_max=n_max,
                               max_states=max_states)
    fit = _tail_fit(series, None if rate.method == "extrapolated"
                    else rate.value)
    quantities = [_qty("lambda_hat", rate.value, rate.sigma, rate.method),
                  _qty("gamma_hat", fit.gamma, fit.gamma_sigma,
                       "extrapolated")]
    slacks = [{"name": "gamma-1", "slack": fit.gamma - 1.0,
               "tol": fit.gamma_sigma}]
    notes = [f"quotient: {quotient.describe()}",
             f"fit window n in {fit.window}, {fit.n_points} points",
             "heuristic probe: finite-n surrogate for the divergence type "
             "of the critical series"]
    return _report("probe", quantities, slacks, notes)


class SymmetricAverageResult:
    """The statistic ``value`` (the largest of the ratios ``per_g``, one
    per representative g), the rate ``lam_hat`` it weighs by and its
    ``horizon`` n."""

    def __init__(self, value, per_g, lam_hat, horizon):
        self.value = value
        self.per_g = per_g
        self.lam_hat = lam_hat
        self.horizon = horizon


def symmetric_on_average_statistic(quotient, pot, reps, n, n_max=None,
                                   max_states=FIBER_MAX_STATES):
    """max over the supplied coset representatives g of

        sum_{k<=n} e^(-k lam) a_k(g)  /  sum_{k<=n} e^(-k lam) a_k(g^{-1})

    where a_k(g) are the exact g-fiber partition sums and lam is the fiber
    growth rate, the restricted pressure at this n_max: exact on finite and
    free abelian quotients, fitted from the identity series on free-kill
    ones. A finite surrogate for the symmetric-on-average ratio (the true
    statistic takes sup over all of G and limsup in n)."""
    if n_max is None:
        n_max = n
    if n_max < n:
        raise ValidationError(f"n_max={n_max} below horizon n={n}")
    reps = list(reps)
    targets = [quotient.identity]
    for g in reps:
        gi = quotient.invert(g)
        for t in (g, gi):
            if t not in targets:
                targets.append(t)
    series = fiber_partition_many(pot, quotient, n_max, targets,
                                  max_states=max_states)
    lam = restricted_pressure(pot, quotient, n_max=n_max,
                              max_states=max_states).value

    def partial(g):
        s = series[g]
        logs = s.log_values[:n]
        ks = np.arange(1, n + 1, dtype=float)
        finite = np.isfinite(logs)
        if not finite.any():
            return 0.0
        vals = logs[finite] - lam * ks[finite]
        m = vals.max()
        return math.exp(m) * float(np.exp(vals - m).sum())

    per_g = {}
    best = None
    for g in reps:
        gi = quotient.invert(g)
        num, den = partial(g), partial(gi)
        if den == 0.0:
            raise UndefinedRatioError(g)
        ratio = num / den
        per_g[g] = ratio
        best = ratio if best is None else max(best, ratio)
    return SymmetricAverageResult(best, per_g, lam, n)


# ---------------------------------------------------------------------------
# Gibbs verification (depth-1 exact construction)

class GibbsData:
    """The Gibbs measure of a depth-1 potential and its constants."""

    def __init__(self, pressure, initial, transition, c_hat, per_level_c):
        self.pressure = pressure
        self.initial = initial          # stationary pi_i ~ nu_i h_i
        self.transition = transition    # Q[i,j] = M[i,j] h_j / (rho h_i)
        self.c_hat = c_hat
        self.per_level_c = per_level_c  # cylinder length -> max Gibbs ratio

    def cylinder_measure(self, word):
        mu = self.initial[word[0]]
        for a, b in zip(word, word[1:]):
            mu *= self.transition[a, b]
        return float(mu)


def gibbs_verify(pot, max_len=8, tol=1e-13):
    """Build the Gibbs measure of a depth-1 potential from Perron eigendata
    and certify the Gibbs property with an explicit constant.

    mu is the stationary Markov measure with transitions weighted by the
    normalized transfer matrix. For depth 1 the Gibbs ratio
    mu[w] / exp(S_w f - |w| P) depends only on the first and last letters,
    so C_hat is exact, constant in cylinder length from length 3 on."""
    if pot.depth != 1:
        raise ValidationError(
            f"gibbs_verify needs a depth-1 potential, got depth {pot.depth}")
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    # Perron data of the untilted matrix pattern * w; h peaks at 1
    pattern = transfer_pattern(pot.d, 1)
    w = np.exp(pot.values)
    rho, _, _, right, left = _perron_batch(pattern, w[None], tol,
                                           want_left=True)
    Q, pi = _equilibrium_chain(pattern, w[None], rho, right, left)
    Q, pi, rho, h = Q[0], pi[0], float(rho[0]), right[0]
    P = math.log(rho)

    row_defect = float(np.abs(Q.sum(axis=1) - 1.0).max())
    stat_defect = float(np.abs(pi @ Q - pi).max())

    # exact Gibbs ratios: mu[w]/e^{S-nP} = pi_a e^{-f(a)}/h_a * h_b * rho
    # for first letter a, last letter b
    f_letter = np.array([pot.value((a,)) for a in range(2 * pot.d)])
    base = pi * np.exp(-f_letter) / h
    ratio = np.outer(base, h) * rho
    per_level = {}
    for n in range(1, max_len + 1):
        if n == 1:
            pairs = ratio.diagonal()
        elif n == 2:
            pairs = ratio[pattern > 0]
        else:
            pairs = ratio.ravel()
        per_level[n] = float(np.maximum(pairs, 1.0 / pairs).max())
    c_hat = max(per_level.values())

    # level masses via matrix powers (mu is a probability on each level)
    level_defect = 0.0
    v = pi.copy()
    for n in range(1, max_len + 1):
        level_defect = max(level_defect, abs(float(v.sum()) - 1.0))
        v = v @ Q

    data = GibbsData(P, pi, Q, c_hat, per_level)
    stable = per_level[max_len] <= 1.05 * per_level[max(1, max_len // 2)]
    quantities = [
        _qty("pressure", P, 0.0, "exact-eigenvalue"),
        _qty("C_hat", c_hat, 0.0, "exact-eigenvalue"),
    ]
    slacks = [
        {"name": "level-mass defect", "slack": 1e-10 - level_defect,
         "tol": 0.0},
        {"name": "row-stochastic defect", "slack": 1e-10 - row_defect,
         "tol": 0.0},
        {"name": "stationarity defect", "slack": 1e-10 - stat_defect,
         "tol": 0.0},
        {"name": "C_hat stability", "slack": 1.0 if stable else -1.0,
         "tol": 0.0},
    ]
    notes = [f"C_hat per level: { {k: round(v, 6) for k, v in per_level.items()} }",
             "ratio depends only on (first, last) letters at depth 1; "
             "C_hat is exact, not sampled"]
    return data, _report("gibbs", quantities, slacks, notes)
