import math

import numpy as np
import pytest

import oracles
from freeshift import (FreeAbelianQuotient, GeometricPotential, Potential,
                       ValidationError, bowen_dimension, cogrowth, combine,
                       default_beta_grid, delta, free_energy,
                       free_energy_curve, full_pressure, legendre,
                       level_set_dimension, restricted_pressure)


class TestFreeEnergy:
    @pytest.mark.parametrize("d,r", [(2, 0.25), (3, 0.2), (2, 0.5)])
    def test_constant_ratio_closed_form(self, d, r):
        zeta = GeometricPotential.constant(d, math.log(r))
        res = delta(zeta)
        want = math.log(2 * d - 1) / (-math.log(r))
        assert res.t == pytest.approx(want, abs=1e-10)
        assert res.sigma == 0.0

    def test_root_property(self, two_ratio_zeta, psi_minus_one):
        # the returned t really zeroes the pressure of beta psi + t zeta
        for beta in (-1.0, 0.0, 1.0):
            pt = free_energy(psi_minus_one, two_ratio_zeta, beta)
            combo = Potential(2, 1, beta * psi_minus_one.values
                              + pt.t * two_ratio_zeta.values)
            assert abs(full_pressure(combo).value) <= 1e-8

    def test_matches_series_oracle(self, two_ratio_zeta, psi_minus_one):
        # the acceptance suite covers beta in {-1, 0, 1}; probe an
        # off-lattice beta here
        zl = list(two_ratio_zeta.values)
        pl = list(psi_minus_one.values)
        want = oracles.full_series_exponent(2, 12, pl, zl, 0.5)
        got = free_energy(psi_minus_one, two_ratio_zeta, 0.5).t
        assert got == pytest.approx(want, abs=0.02)

    def test_none_psi_is_zero_psi(self, two_ratio_zeta):
        a = free_energy(None, two_ratio_zeta, 0.7)
        b = free_energy(Potential.constant(2, 0.0), two_ratio_zeta, 0.7)
        assert a.t == pytest.approx(b.t, abs=1e-12)

    def test_rejects_nonnegative_zeta(self):
        bad = Potential.from_letter_values(2, [-1, -1, 0.0, -1])
        with pytest.raises(ValidationError):
            free_energy(None, bad, 0.0)

    @pytest.mark.parametrize("scope", ["full", "s3"])
    @pytest.mark.parametrize("beta", [-4.0, -1.0, 0.0, 0.5, 4.0])
    def test_matches_reference_bisection(self, two_ratio_zeta, psi_minus_one,
                                         s3, scope, beta):
        quotient = s3 if scope == "s3" else None

        def pressure(u):
            pot = combine((beta, psi_minus_one), (u, two_ratio_zeta))
            if quotient is None:
                return full_pressure(pot).value
            return restricted_pressure(pot, quotient).value

        want = oracles.bisect_root(pressure, -16.0, 16.0)
        got = free_energy(psi_minus_one, two_ratio_zeta, beta,
                          quotient=quotient)
        assert abs(got.t - want) <= 1e-10

    def test_extrapolated_delta_matches_reference_bisection(
            self, two_ratio_zeta, z2):
        def pressure(u):
            return restricted_pressure(combine((u, two_ratio_zeta)), z2,
                                       n_max=30).value

        want = oracles.bisect_root(pressure, 0.0, 2.0)
        got = delta(two_ratio_zeta, quotient=z2, n_max=30)
        assert abs(got.t - want) <= 1e-9

    @pytest.mark.parametrize("scope", ["full", "s3"])
    def test_evaluations_per_point(self, two_ratio_zeta, psi_minus_one, s3,
                                   scope):
        # Brent's method converges superlinearly; bisection to the same
        # tolerance takes about 39 pressure evaluations per point here
        quotient = s3 if scope == "s3" else None
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                  quotient=quotient)
        evals = [p.evaluations for p in curve.points]
        assert len(evals) == 161
        assert np.mean(evals) <= 10 and max(evals) <= 12

    def test_restricted_uses_quotient(self, two_ratio_zeta, z2):
        full = free_energy(None, two_ratio_zeta, 0.0)
        rest = free_energy(None, two_ratio_zeta, 0.0, quotient=z2, n_max=30)
        assert rest.method == "extrapolated"
        assert rest.sigma > 0
        assert rest.t <= full.t + 3 * rest.sigma + 1e-9


class TestDimensions:
    def test_bowen_two_ratio_matches_series_oracle(self, two_ratio_zeta,
                                                   recwarn):
        import warnings
        zl = list(two_ratio_zeta.values)
        want = oracles.full_series_exponent(2, 12, [0.0] * 4, zl, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = bowen_dimension(two_ratio_zeta)
        assert got.t == pytest.approx(want, abs=0.02)

    def test_ambient_warning(self, two_ratio_zeta):
        with pytest.warns(UserWarning, match="ambient"):
            bowen_dimension(two_ratio_zeta, ambient_dim=1.0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bowen_dimension(two_ratio_zeta, ambient_dim=2.0)

    def test_cogrowth_finite_is_one(self, zmod2, s3):
        for q in (zmod2, s3):
            res = cogrowth(q)
            assert res.eta == pytest.approx(1.0, abs=1e-9)
            assert res.sigma == 0.0
            assert res.method == "exact-eigenvalue"

    def test_cogrowth_z2(self, z2):
        res = cogrowth(z2, n_max=40)
        assert res.eta == pytest.approx(1.0, abs=0.02)
        assert res.ambient_rate == pytest.approx(math.log(3), abs=1e-12)


@pytest.fixture(scope="module")
def curve(two_ratio_zeta, psi_minus_one):
    betas = default_beta_grid(-2.0, 2.0, 0.25)
    return free_energy_curve(psi_minus_one, two_ratio_zeta, betas=betas)


class TestCurvesAndSpectra:

    def test_convexity(self, curve):
        assert curve.convexity_margin() >= 0

    def test_legendre_envelope(self, curve):
        spec = legendre(curve)
        # spectrum maximum equals t(0) at alpha = -t'(0)
        i0 = int(np.argmin(np.abs(curve.betas)))
        t0 = curve.points[i0].t
        assert spec.t0 == pytest.approx(t0, abs=1e-12)
        interior = [b for b, f in zip(spec.b_values, spec.flags)
                    if f == "interior"]
        assert max(interior) <= t0 + 1e-9
        assert max(interior) >= t0 - 0.01
        # b(alpha) = inf_beta (t + beta alpha) stays below every chord
        for a, b in zip(spec.alphas, spec.b_values):
            if not math.isnan(b):
                chords = curve.t_values + curve.betas * a
                assert b <= chords.min() + 1e-9

    def test_alpha_range_brackets_slopes(self, curve):
        spec = legendre(curve)
        slopes = curve.slopes()
        assert spec.alpha_minus == pytest.approx(-slopes.max(), abs=1e-12)
        assert spec.alpha_plus == pytest.approx(-slopes.min(), abs=1e-12)
        assert spec.alpha_minus < spec.alpha_plus

    def test_alpha_count_control(self, curve):
        spec = legendre(curve, n_alphas=7)
        assert len(spec.alphas) == 7

    def test_point_spectrum_when_psi_constant(self, quarter_zeta):
        betas = default_beta_grid(-1.0, 1.0, 0.5)
        curve = free_energy_curve(Potential.constant(2, -1.0), quarter_zeta,
                                  betas=betas)
        spec = legendre(curve)
        assert spec.flags == ["point"]
        assert len(spec.alphas) == 1

    def test_level_set_dimension(self, two_ratio_zeta, psi_minus_one):
        betas = default_beta_grid(-2.0, 2.0, 0.25)
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta, betas=betas)
        spec = legendre(curve)
        mid = 0.5 * (spec.alpha_minus + spec.alpha_plus)
        inside = level_set_dimension(mid, psi_minus_one, two_ratio_zeta,
                                     curve=curve)
        assert not math.isnan(inside) and inside > 0
        outside = level_set_dimension(spec.alpha_plus + 1.0, psi_minus_one,
                                      two_ratio_zeta, curve=curve)
        assert math.isnan(outside)

    def test_domination_by_full_curve(self, z2):
        zeta = GeometricPotential.constant(2, math.log(0.25))
        psi = Potential.from_letter_values(2, [-0.4, -0.4, -0.6, -0.6])
        betas = default_beta_grid(-1.0, 1.0, 0.5)
        full = free_energy_curve(psi, zeta, betas=betas)
        rest = free_energy_curve(psi, zeta, betas=betas, quotient=z2,
                                 n_max=30)
        for pf, pn in zip(full.points, rest.points):
            assert pn.t <= pf.t + 3 * (pf.sigma + pn.sigma) + 1e-9

    def test_curve_builds_one_ball(self, two_ratio_zeta, monkeypatch):
        # every evaluation of the curve's roots reads one cached ball table
        z2 = FreeAbelianQuotient(2, 2, [[1, 0], [0, 1]])
        calls = []
        ball = FreeAbelianQuotient.ball

        def spy(self, radius, max_elements=5_000_000):
            calls.append(radius)
            return ball(self, radius, max_elements)

        monkeypatch.setattr(FreeAbelianQuotient, "ball", spy)
        psi = Potential.from_letter_values(2, [-0.4, -0.4, -0.6, -0.6])
        curve = free_energy_curve(psi, two_ratio_zeta, betas=[-1.0, 0.0, 1.0],
                                  quotient=z2, n_max=40)
        assert sum(p.evaluations for p in curve.points) > 3
        assert calls == [40]

    def test_csv_output(self, curve, tmp_path):
        path = tmp_path / "curve.csv"
        curve.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "beta,t,method,sigma"
        assert len(lines) == 1 + len(curve.betas)
        spec = legendre(curve)
        spath = tmp_path / "spec.csv"
        spec.write_csv(str(spath))
        slines = spath.read_text().splitlines()
        assert slines[0] == "alpha,b,flag"

    def test_beta_grid_validation(self):
        with pytest.raises(ValidationError):
            default_beta_grid(2.0, -2.0, 0.5)
        with pytest.raises(ValidationError):
            default_beta_grid(-2.0, 2.0, -0.5)
