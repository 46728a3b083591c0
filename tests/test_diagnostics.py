import math

import numpy as np
import pytest

import oracles
import freeshift.diagnostics as diag
import freeshift.pressure as pressure_mod
from freeshift import (Potential, UndefinedRatioError, ValidationError,
                       VerdictReport, amenability_report, divergence_probe,
                       fiber_partition, gibbs_verify, growth_rate,
                       half_bound_check, pressure_inequality_check,
                       random_inverse_symmetric,
                       symmetric_on_average_statistic)
from freeshift.spectra import free_energy_curve

BETAS = np.linspace(-1.0, 1.0, 5)
PSI_SYM = Potential.from_letter_values(2, [-0.3, -0.3, -0.5, -0.5])
ZETA_1 = Potential.constant(2, -1.0)


def _curves(quotient, psi, zeta, betas, n_max=40):
    """The (full, restricted) free-energy curves the reports compare."""
    return (free_energy_curve(psi, zeta, betas=betas),
            free_energy_curve(psi, zeta, betas=betas, quotient=quotient,
                              n_max=n_max))


class TestAmenability:
    def test_finite_quotient_gaps_vanish_exactly(self, s3):
        rep = amenability_report(s3, _curves(s3, PSI_SYM, ZETA_1, BETAS),
                                 PSI_SYM, ZETA_1)
        assert rep.classification == "consistent with amenable"
        gaps = [s for s in rep.slacks if s["name"].startswith("gap")]
        assert len(gaps) == len(BETAS)
        assert all(abs(s["slack"]) <= 1e-9 for s in gaps)

    def test_exact_sigma_zero_still_classifies(self, zmod2):
        # exact eigenvalues carry sigma 0; the noise floor must absorb
        # solver-level jitter instead of yielding "inconclusive"
        rep = amenability_report(zmod2,
                                 _curves(zmod2, PSI_SYM, ZETA_1, BETAS),
                                 PSI_SYM, ZETA_1)
        assert rep.classification == "consistent with amenable"

    def test_amenable_infinite_quotient(self, z2):
        from freeshift import GeometricPotential
        zeta = GeometricPotential.constant(2, math.log(0.25))
        rep = amenability_report(z2, _curves(z2, None, zeta, np.array([0.0]),
                                             n_max=40), None, zeta)
        assert rep.classification == "consistent with amenable"
        gap = rep.slacks[0]["slack"]
        assert abs(gap) <= 0.02

    def test_nonamenable_quotient_detected(self, fk3):
        zeta = Potential.constant(3, -1.0)
        rep = amenability_report(fk3, _curves(fk3, None, zeta,
                                              np.array([0.0]), n_max=30),
                                 None, zeta)
        assert rep.classification == "non-amenable detected"
        assert rep.slacks[0]["slack"] >= 0.05

    def test_symmetric_psi_on_fk3_detected_at_every_beta(self, fk3):
        zeta = Potential.constant(3, -1.0)
        psi = Potential.from_letter_values(
            3, [-0.3, -0.3, -0.5, -0.5, 0.2, 0.2])
        betas = np.array([-1.0, 0.0, 1.0])
        rep = amenability_report(fk3, _curves(fk3, psi, zeta, betas,
                                              n_max=30), psi, zeta)
        assert rep.classification == "non-amenable detected"
        assert [s["name"] for s in rep.slacks] == \
            [f"gap(beta={b:g})" for b in betas]
        assert len(rep.notes) == 2 and rep.verify()

    def test_asymmetric_potentials_compare_symmetric_betas_only(self, z2):
        # on Z^2 an asymmetric psi drifts: t_N(1) < t(1) though Z^2 is
        # amenable, so only beta = 0 (the potential t zeta) is compared
        zeta = Potential.from_letter_values(2, [-1.0, -1.0, -2.0, -2.0])
        psi = Potential.from_letter_values(2, [1.0, -1.0, 0.0, 0.0])
        betas = np.array([0.0, 1.0])
        curves = _curves(z2, psi, zeta, betas, n_max=24)
        assert curves[0].points[1].t - curves[1].points[1].t > 0.1
        rep = amenability_report(z2, curves, psi, zeta)
        assert [s["name"] for s in rep.slacks] == ["gap(beta=0)"]
        assert rep.classification == "consistent with amenable"
        assert rep.notes[-1].startswith("gap not compared")
        assert "inverse-symmetric at beta = 1," in rep.notes[-1]
        bound = half_bound_check(z2, zeta, curves=curves, psi=psi)
        assert [s["name"] for s in bound.slacks] == ["delta_N - delta/2"]
        assert bound.notes[-1].startswith("spectrum not compared")
        assert "inverse-symmetric at beta = 1," in bound.notes[-1]
        # an asymmetric zeta leaves no point: both verdicts inconclusive
        tilted = Potential.from_letter_values(2, [-1.0, -1.5, -2.0, -2.0])
        curves = _curves(z2, None, tilted, betas, n_max=24)
        for rep in (amenability_report(z2, curves, None, tilted),
                    half_bound_check(z2, tilted, curves=curves)):
            assert rep.slacks == [] and rep.verify()
            assert rep.classification == "inconclusive"

    def test_curves_on_different_betas_rejected(self, zmod2):
        full, _ = _curves(zmod2, None, ZETA_1, BETAS)
        _, restricted = _curves(zmod2, None, ZETA_1, BETAS + 0.5)
        with pytest.raises(ValidationError, match="same betas"):
            amenability_report(zmod2, (full, restricted), None, ZETA_1)
        with pytest.raises(ValidationError, match="same betas"):
            half_bound_check(zmod2, ZETA_1, curves=(full, restricted))


class TestHalfBound:
    def test_finite_quotient_slack_is_half_delta(self, s3):
        rep = half_bound_check(s3, ZETA_1)
        assert rep.classification == "holds"
        slack = next(s for s in rep.slacks
                     if s["name"] == "delta_N - delta/2")
        assert slack["slack"] == pytest.approx(math.log(3) / 2, abs=1e-9)

    def test_fk3_strict_margin(self, fk3):
        zeta = Potential.constant(3, -1.0)
        rep = half_bound_check(fk3, zeta, n_max=30)
        assert rep.classification == "holds"
        assert min(s["slack"] for s in rep.slacks) >= 0.02

    def test_spectrum_slacks_included(self, z2):
        from freeshift import GeometricPotential
        zeta = GeometricPotential.from_letter_values(
            2, [math.log(0.5)] * 2 + [math.log(1 / 3)] * 2)
        rep = half_bound_check(
            z2, zeta, curves=_curves(z2, PSI_SYM, zeta, BETAS, n_max=30),
            n_max=30)
        assert rep.classification == "holds"
        assert any(s["name"].startswith("b_N") for s in rep.slacks)

    def test_curves_at_beta_zero_give_the_deltas(self, fk3, monkeypatch):
        # t(0) = delta whatever psi is, so curves through beta = 0 already
        # hold delta and delta_N; no root is solved again
        zeta = Potential.constant(3, -1.0)
        psi = Potential.from_letter_values(3, [-0.3, -0.5, 0.1, 0.2, 0, 0])
        curves = _curves(fk3, psi, zeta, np.array([-1.0, 0.0, 1.0]),
                         n_max=30)
        want = half_bound_check(fk3, zeta, n_max=30)

        def no_delta(*args, **kwargs):
            raise AssertionError("delta solved again")

        monkeypatch.setattr(diag, "delta", no_delta)
        rep = half_bound_check(fk3, zeta, curves=curves, n_max=30)
        got = {q["quantity"]: q for q in rep.quantities}
        for name, point in zip(("delta", "delta_N"),
                               (curves[0].points[1], curves[1].points[1])):
            assert got[name]["value"] == point.t
            assert got[name]["sigma"] == point.sigma
        for q in want.quantities:
            assert got[q["quantity"]]["value"] == q["value"]


class TestPressureInequality:
    def test_zero_potential_on_z2(self, z2):
        rep = pressure_inequality_check(z2, Potential.constant(2, 0.0),
                                        n_max=40)
        assert rep.classification == "holds"
        # slack = 2 lambda_N - log 3 with lambda_N near log 3
        assert rep.slacks[0]["slack"] >= math.log(3) - 0.04

    def test_fk3_holds_despite_pressure_gap(self, fk3):
        rep = pressure_inequality_check(fk3, Potential.constant(3, 0.0),
                                        n_max=30)
        assert rep.classification == "holds"
        assert rep.slacks[0]["slack"] >= 0

    def test_constant_shift_cancels(self, z2):
        a = pressure_inequality_check(z2, Potential.constant(2, 0.0),
                                      n_max=25)
        b = pressure_inequality_check(z2, Potential.constant(2, 0.9),
                                      n_max=25)
        assert a.slacks[0]["slack"] == pytest.approx(b.slacks[0]["slack"],
                                                     abs=1e-9)

    def test_rejects_asymmetric_potential(self, z2):
        bad = Potential.from_letter_values(2, [0.1, 0.7, 0.0, 0.0])
        with pytest.raises(ValidationError, match="symmetric"):
            pressure_inequality_check(z2, bad)


class TestDivergenceProbe:
    @pytest.mark.parametrize("gamma0", [0.5, 1.0, 1.5])
    def test_regression_self_test(self, monkeypatch, z2, gamma0):
        # synthetic a_n = 3^n n^(-gamma0): the probe must recover gamma0
        import freeshift.pressure as pm
        ns = np.arange(1, 21, dtype=float)
        logs = math.log(3) * ns - gamma0 * np.log(ns)
        series = pm.FiberSeries(20, logs, period=1)
        monkeypatch.setattr(diag, "fiber_partition",
                            lambda pot, q, n_max, max_states: series)
        rep = divergence_probe(z2, Potential.constant(2, 0.0), n_max=20)
        got = next(q for q in rep.quantities
                   if q["quantity"] == "gamma_hat")["value"]
        assert got == pytest.approx(gamma0, abs=0.05)
        want = ("divergence-type (gamma <= 1)" if gamma0 <= 1
                else "convergence-type (gamma > 1)")
        assert rep.classification == want

    def test_fitted_rate_reads_growth_rate_gamma_and_sigma(self, fk3):
        # on a free-kill quotient lambda is fitted with gamma, so gamma's
        # sigma must carry the error of lambda: 0.0917 here, while a
        # regression with lambda held at the fitted value reports 0.00083
        pot = Potential.constant(3, -1.0)
        rep = divergence_probe(fk3, pot, n_max=40)
        fit = growth_rate(fiber_partition(pot, fk3, 40))
        gamma = next(q for q in rep.quantities
                     if q["quantity"] == "gamma_hat")
        slack = next(s for s in rep.slacks if s["name"] == "gamma-1")
        assert gamma["value"] == pytest.approx(fit.gamma, rel=0, abs=1e-10)
        assert gamma["sigma"] == slack["tol"] == fit.gamma_sigma
        assert fit.gamma_sigma == pytest.approx(0.0917, abs=5e-5)

    def test_exact_scopes_never_fit_the_rate(self, s3, zmod2, z2,
                                             monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("growth_rate on an exact scope")

        monkeypatch.setattr(pressure_mod, "growth_rate", no_fit)
        for q, rep in ((s3, 2), (zmod2, 1), (z2, (1, 0))):
            pot = random_inverse_symmetric(2, 3)
            probe = divergence_probe(q, pot, n_max=36)
            symmetric_on_average_statistic(q, pot, [rep], 16)
            lam = next(x for x in probe.quantities
                       if x["quantity"] == "lambda_hat")
            assert lam["sigma"] == 0.0
            assert lam["method"] == ("exact-twisted" if q is z2
                                     else "exact-eigenvalue")

    def test_insufficient_terms(self, z2):
        with pytest.raises(Exception):
            divergence_probe(z2, Potential.constant(2, 0.0), n_max=8)

    def test_notes_label_heuristic(self, z1):
        rep = divergence_probe(z1, Potential.constant(2, 0.0), n_max=30)
        assert any("heuristic" in n for n in rep.notes)


class TestSymmetricStatistic:
    def test_identity_rep_is_exactly_one(self, z2):
        res = symmetric_on_average_statistic(
            z2, Potential.constant(2, 0.0), [z2.identity], 20)
        assert res.value == 1.0

    def test_exponent_two_group_is_exactly_one(self, zmod2):
        res = symmetric_on_average_statistic(
            zmod2, random_inverse_symmetric(2, 5), [1], 16)
        assert res.value == 1.0

    def test_lattice_symmetry_near_one(self, z2):
        pot = random_inverse_symmetric(2, 11)
        res = symmetric_on_average_statistic(z2, pot, [(1, 0)], 30)
        assert res.value == pytest.approx(1.0, abs=0.1)
        assert set(res.per_g) == {(1, 0)}

    def test_undefined_ratio_names_the_rep(self, z2):
        with pytest.raises(UndefinedRatioError, match=r"\(1, 1\)"):
            symmetric_on_average_statistic(
                z2, Potential.constant(2, 0.0), [(1, 1)], 1, n_max=12)

    def test_horizon_beyond_budget(self, z2):
        with pytest.raises(ValidationError):
            symmetric_on_average_statistic(
                z2, Potential.constant(2, 0.0), [(1, 1)], 20, n_max=10)


class TestGibbs:
    def test_uniform_measure_for_zero_potential(self):
        data, rep = gibbs_verify(Potential.constant(2, 0.0))
        assert rep.classification == "verified"
        # transitions: 1/3 to each admissible letter
        for a in range(4):
            for b in range(4):
                want = 0.0 if b == (a ^ 1) else 1 / 3
                assert data.transition[a, b] == pytest.approx(want,
                                                              abs=1e-12)
        assert np.allclose(data.initial, 0.25, atol=1e-12)

    def test_constant_equals_zero_potential_measure(self):
        d0, _ = gibbs_verify(Potential.constant(2, 0.0))
        dc, _ = gibbs_verify(Potential.constant(2, 0.8))
        assert np.allclose(d0.transition, dc.transition, atol=1e-12)
        assert d0.c_hat == pytest.approx(dc.c_hat, abs=1e-10)

    def test_level_sums_and_compatibility(self):
        pot = random_inverse_symmetric(2, 3)
        data, rep = gibbs_verify(pot, max_len=6)
        assert rep.classification == "verified"
        for n in (1, 2, 3, 4, 5):
            total = sum(data.cylinder_measure(w)
                        for w in oracles.brute_words(2, n))
            assert total == pytest.approx(1.0, abs=1e-10), n
        for w in oracles.brute_words(2, 3):
            children = sum(data.cylinder_measure(w + (x,))
                           for x in range(4) if x != (w[-1] ^ 1))
            assert children == pytest.approx(data.cylinder_measure(w),
                                             abs=1e-12)

    def test_gibbs_ratio_against_direct_sums(self):
        # mu[w] / exp(S_w f - n P) <= C_hat with ratio depending only on
        # the (first, last) letter pair
        pot = random_inverse_symmetric(2, 7)
        data, _ = gibbs_verify(pot, max_len=5)
        P = data.pressure
        seen = {}
        for w in oracles.brute_words(2, 4):
            s = sum(pot.value((l,)) for l in w)
            ratio = data.cylinder_measure(w) / math.exp(s - 4 * P)
            key = (w[0], w[-1])
            seen.setdefault(key, ratio)
            assert ratio == pytest.approx(seen[key], rel=1e-10)
            assert max(ratio, 1 / ratio) <= data.c_hat + 1e-10

    def test_stability_across_lengths(self):
        pot = random_inverse_symmetric(2, 42)
        data, rep = gibbs_verify(pot, max_len=8)
        assert data.per_level_c[8] <= 1.05 * data.per_level_c[4]
        assert rep.classification == "verified"

    def test_level_masses_checked_to_max_len(self):
        # a gibbs_len above 8 checks every level: the slack is that of the
        # largest defect of the level masses sum(pi Q^n) over all 12
        # levels, which this potential reaches past level 8
        data, rep = gibbs_verify(random_inverse_symmetric(2, 1), max_len=12)
        v, defects = data.initial, []
        for _ in range(12):
            defects.append(abs(float(v.sum()) - 1.0))
            v = v @ data.transition
        assert max(defects) > max(defects[:8])
        slacks = {s["name"]: s["slack"] for s in rep.slacks}
        assert slacks["level-mass defect"] == 1e-10 - max(defects)

    @pytest.mark.parametrize("c", [800.0, -800.0])
    def test_constant_shift_moves_pressure_alone(self, c):
        # e^(f + c) leaves the float range for c = 800, and e^(-f - c) for
        # c = -800; the tilted solve sees neither, so only P moves
        f = Potential(3, 1, np.random.default_rng(31).uniform(-2, 2, 6))
        data, _ = gibbs_verify(f)
        shifted, rep = gibbs_verify(Potential(3, 1, f.values + c))
        assert abs(shifted.pressure - (data.pressure + c)) <= 1e-9
        assert shifted.c_hat == pytest.approx(data.c_hat, abs=1e-12)
        assert np.abs(shifted.transition - data.transition).max() <= 1e-12
        assert np.abs(shifted.initial - data.initial).max() <= 1e-12
        assert rep.classification == "verified"

    def test_rejects_deeper_potentials(self):
        with pytest.raises(ValidationError, match="depth-1"):
            gibbs_verify(Potential.constant(2, 0.0, depth=2))

    def test_rejects_empty_cylinder_range(self):
        with pytest.raises(ValidationError, match="max_len must be >= 1"):
            gibbs_verify(Potential.constant(2, 0.0), max_len=0)


class TestVerdictReports:
    def test_self_verification_and_tampering(self, s3):
        rep = amenability_report(s3, _curves(s3, PSI_SYM, ZETA_1, BETAS),
                                 PSI_SYM, ZETA_1)
        assert rep.verify()
        rep.classification = "non-amenable detected"
        assert not rep.verify()

    def test_schema(self, zmod2):
        rep = half_bound_check(zmod2, ZETA_1)
        d = rep.to_dict()
        assert set(d) == {"rule", "verdict", "quantities", "slacks", "notes"}
        for q in d["quantities"]:
            assert set(q) == {"quantity", "value", "sigma", "method"}
        for s in d["slacks"]:
            assert set(s) == {"name", "slack", "tol"}

    def test_round_trip_classification(self, zmod2):
        rep = half_bound_check(zmod2, ZETA_1)
        d = rep.to_dict()
        again = VerdictReport(d["rule"], d["quantities"], d["slacks"],
                              d["verdict"], d["notes"])
        assert again.verify()

    def test_unknown_rule_is_refused(self):
        rep = VerdictReport("majority", [], [], "holds")
        with pytest.raises(ValidationError, match="unknown verdict rule"):
            rep.verify()

    def test_every_number_has_provenance(self, z2, fk3):
        # Z^2 restricted pressures are exact twisted minima (sigma 0);
        # FK3's are still growth fits, with a positive sigma
        for q, d, method in ((z2, 2, "exact-twisted"),
                             (fk3, 3, "extrapolated")):
            rep = pressure_inequality_check(q, Potential.constant(d, 0.0),
                                            n_max=25)
            for x in rep.quantities:
                assert x["method"] in ("exact-eigenvalue", "exact-twisted",
                                       "extrapolated")
                assert x["sigma"] >= 0
            restricted = rep.quantities[0]
            assert restricted["method"] == method
            assert (restricted["sigma"] == 0) == (method != "extrapolated")
