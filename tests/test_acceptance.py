"""Acceptance suite: one test per advertised numerical guarantee.

Each test appends a single PASS/FAIL line to RESULTS and then asserts, so
the terminal-summary hook in conftest can print the whole scoreboard even
when an individual criterion goes red. Tolerances and runtime budgets are
part of the guarantee and are checked, not just reported.
"""

import math
import time

import numpy as np

import oracles
from conftest import FK3_KILLED_0BASED
from freeshift import (GeometricPotential, Potential, cogrowth, delta,
                       divergence_probe, fiber_partition, free_energy_curve,
                       full_pressure, gibbs_verify, growth_rate, legendre,
                       pressure_inequality_check, random_inverse_symmetric)

RESULTS = []


def _check(num, budget, body):
    t0 = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:
        RESULTS.append(f"[criterion {num:2d}] FAIL - raised {exc!r}")
        raise
    dt = time.perf_counter() - t0
    ok = bool(ok) and dt < budget
    line = (f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{dt:.1f}s / {budget:.0f}s]")
    RESULTS.append(line)
    assert ok, line


def test_01_full_pressure_closed_form():
    def body():
        errs = [abs(full_pressure(Potential.constant(d, 0.0)).value
                    - math.log(2 * d - 1)) for d in (2, 3, 4, 5)]
        return max(errs) <= 1e-10, (
            f"P(0) = log(2d-1) for d = 2..5, max err {max(errs):.1e} "
            f"(tol 1e-10)")
    _check(1, 1.0, body)


def test_02_constant_ratio_closed_form():
    def body():
        worst = 0.0
        for d, r in ((2, 0.25), (3, 0.2)):
            zeta = GeometricPotential.constant(d, math.log(r))
            want = math.log(2 * d - 1) / -math.log(r)
            worst = max(worst, abs(delta(zeta).t - want))
        return worst <= 1e-9, (
            f"delta = log(2d-1)/(-log r) at (d,r) = (2,1/4), (3,1/5), "
            f"max err {worst:.1e} (tol 1e-9)")
    _check(2, 1.0, body)


def test_03_finite_quotient_equality(bundle, quarter_zeta, two_ratio_zeta):
    def body():
        worst = 0.0
        for name in ("zmod2", "s3"):
            d, q, (ident, img, mul) = bundle[name]
            for zeta in (quarter_zeta, two_ratio_zeta):
                want = oracles.lifted_delta(d, ident, img, mul, zeta.values)
                worst = max(worst,
                            abs(delta(zeta, quotient=q).t - want))
        return worst <= 1e-9, (
            f"Z/2 and S3 scopes: delta_N vs an independently lifted "
            f"matrix, max |diff| {worst:.1e} (tol 1e-9)")
    _check(3, 5.0, body)


def test_04_amenable_infinite_quotient(z2):
    def body():
        series = fiber_partition(Potential.constant(2, 0.0), z2, 40)
        fit = growth_rate(series)
        lam_err = abs(fit.lam - math.log(3))
        eta = cogrowth(z2, n_max=40).eta
        ok = lam_err <= 0.02 and abs(eta - 1.0) <= 0.02
        return ok, (
            f"Z^2 scope at n_max 40: |lam_hat - log 3| = {lam_err:.4f} "
            f"(tol 0.02), eta = {eta:.4f} (target 1 +/- 0.02)")
    _check(4, 30.0, body)


def test_05_nonamenable_gap(fk3):
    def body():
        zeta = Potential.constant(3, -1.0)
        d_full = delta(zeta).t
        d_n = delta(zeta, quotient=fk3, n_max=40).t
        lo, hi = d_full / 2 + 0.02, d_full - 0.05
        ident, img, mul = oracles.freekill_ops(FK3_KILLED_0BASED)
        want = oracles.brute_fiber_sums(3, 8, ident, img, mul)
        got = fiber_partition(Potential.constant(3, 0.0), fk3, 8).values
        counts_ok = all(
            round(g) == round(w) and abs(g - w) <= 1e-9 * max(w, 1.0)
            for g, w in zip(got, want))
        ok = (abs(d_full - math.log(5)) <= 1e-9
              and lo <= d_n <= hi and counts_ok)
        return ok, (
            f"generator-killing scope on F3: delta_N = {d_n:.4f} inside "
            f"[delta/2 + 0.02, delta - 0.05] = [{lo:.4f}, {hi:.4f}] with "
            f"delta = log 5; a_n (n <= 8) match the brute-force oracle")
    _check(5, 120.0, body)


def test_06_pressure_inequality(bundle):
    def body():
        verdicts = []
        for name, (d, q, _) in bundle.items():
            for f in (Potential.constant(d, 0.0),
                      random_inverse_symmetric(d, 11)):
                rep = pressure_inequality_check(q, f, n_max=40)
                verdicts.append((name, rep.classification))
        bad = sorted({n for n, v in verdicts if v != "holds"})
        return not bad, (
            f"2 P_N(f) - P(2f) >= -3 sigma for f = 0 and random "
            f"inverse-symmetric f on all {len(verdicts) // 2} bundled "
            f"quotients" + (f"; violated on {bad}" if bad else ""))
    _check(6, 60.0, body)


def test_07_divergence_probe(z1, z2, z3):
    def body():
        ok, shown = True, []
        for rank, q in ((1, z1), (2, z2), (3, z3)):
            pot = Potential.constant(2 if rank < 3 else 3, 0.0)
            rep = divergence_probe(q, pot, n_max=40)
            g = next(x for x in rep.quantities
                     if x["quantity"] == "gamma_hat")["value"]
            diverges = rep.classification.startswith("divergence")
            ok = ok and abs(g - rank / 2) <= 0.15 and diverges == (rank <= 2)
            shown.append(f"Z^{rank} {g:.3f}")
        return ok, (
            "gamma_hat " + ", ".join(shown) + " (targets 0.5/1.0/1.5, "
            "tol 0.15); divergence-type exactly for rank <= 2")
    _check(7, 120.0, body)


def test_08_multifractal_formalism(two_ratio_zeta, psi_minus_one):
    def body():
        betas = np.round(np.arange(-4.0, 4.0 + 1e-9, 0.05), 10)
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                  betas=betas)
        spec = legendre(curve, n_alphas=321)
        d0 = delta(two_ratio_zeta).t
        i = int(np.nanargmax(spec.b_values))
        peak_err = abs(spec.b_values[i] - d0)
        j = int(np.argmin(np.abs(betas)))
        slope0 = (curve.t_values[j + 1] - curve.t_values[j - 1]) \
            / (betas[j + 1] - betas[j - 1])
        loc_err = abs(spec.alphas[i] + slope0)
        fin = spec.b_values[np.isfinite(spec.b_values)]
        concave = float(np.max(np.diff(np.diff(fin)))) <= 1e-9
        nonneg = float(fin.min()) >= -1e-12
        oracle_err = 0.0
        for beta in (-1.0, 0.0, 1.0):
            want = oracles.full_series_exponent(
                2, 12, list(psi_minus_one.values),
                list(two_ratio_zeta.values), beta)
            k = int(np.argmin(np.abs(betas - beta)))
            oracle_err = max(oracle_err, abs(curve.t_values[k] - want))
        ok = (peak_err <= 0.01 and loc_err <= 0.01 and concave and nonneg
              and oracle_err <= 0.02)
        return ok, (
            f"two-ratio spectrum: |peak - delta| = {peak_err:.1e} and peak "
            f"sits at -t'(0) within {loc_err:.4f} (tol 0.01); concave; "
            f"b >= 0; t(-1/0/1) vs n <= 12 series oracle within "
            f"{oracle_err:.4f} (tol 0.02)")
    _check(8, 60.0, body)


def test_09_quotient_spectrum_equality(two_ratio_zeta, psi_minus_one, z2):
    def body():
        betas = np.round(np.arange(-3.0, 3.0 + 1e-9, 0.25), 10)
        c_full = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                   betas=betas)
        c_quot = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                   betas=betas, quotient=z2, n_max=40)
        s_full, s_quot = legendre(c_full), legendre(c_quot)
        lo = max(s_full.alpha_minus, s_quot.alpha_minus)
        hi = min(s_full.alpha_plus, s_quot.alpha_plus)
        common = np.linspace(lo + 0.1 * (hi - lo),
                             hi - 0.1 * (hi - lo), 21)
        b_full = legendre(c_full, alphas=common).b_values
        b_quot = legendre(c_quot, alphas=common).b_values
        gap = float(np.max(np.abs(b_quot - b_full)))
        return gap <= 0.03, (
            f"Z^2 scope spectrum vs full on 21 common interior alphas: "
            f"max |b_N - b| = {gap:.4f} (tol 0.03)")
    _check(9, 120.0, body)


def test_10_gibbs_verification():
    def body():
        pot = random_inverse_symmetric(2, 42)
        data, rep = gibbs_verify(pot, max_len=8)
        stable = data.per_level_c[8] <= 1.05 * data.per_level_c[4]
        sum_err = max(
            abs(sum(data.cylinder_measure(w)
                    for w in oracles.brute_words(2, n)) - 1.0)
            for n in range(1, 9))
        ok = rep.classification == "verified" and stable \
            and sum_err <= 1e-10
        return ok, (
            f"random depth-1 Gibbs data: C(8) = {data.per_level_c[8]:.4f} "
            f"<= 1.05 C(4) = {1.05 * data.per_level_c[4]:.4f}; level sums "
            f"off by {sum_err:.1e} (tol 1e-10)")
    _check(10, 10.0, body)


def test_11_combinatorial_oracles(bundle):
    def body():
        for name, (d, q, (ident, img, mul)) in bundle.items():
            want = sorted(
                oracles.brute_first_returns(d, 8, ident, img, mul),
                key=lambda w: (len(w), w))
            if q.first_return_words(8) != want:
                return False, f"first-return words differ on {name}"
            counts = oracles.brute_fiber_sums(d, 8, ident, img, mul)
            got = fiber_partition(Potential.constant(d, 0.0), q, 8).values
            for g, w in zip(got, counts):
                if round(g) != round(w) or abs(g - w) > 1e-9 * max(w, 1.0):
                    return False, f"fiber counts differ on {name}"
        return True, (
            "first-return words and fiber counts match exhaustive "
            "enumeration exactly on all 6 bundled quotients, lengths <= 8")
    _check(11, 30.0, body)
