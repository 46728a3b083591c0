import math

import numpy as np
import pytest

import oracles
import freeshift.pressure as pressure_mod
import freeshift.spectra as spectra_mod
from freeshift import (FreeAbelianQuotient, FreeEnergyCurve,
                       FreeEnergyPoint, GeometricPotential,
                       NumericError, Potential, ValidationError,
                       bowen_dimension, cogrowth, combine, default_beta_grid,
                       delta, free_energy, free_energy_curve, full_pressure,
                       legendre, restricted_pressure,
                       window_states)
from freeshift.pressure import (scope_rows, transfer_pattern, twist_table,
                                twisted_rows)


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

    def test_rank_mismatch_is_refused(self, two_ratio_zeta):
        with pytest.raises(ValidationError, match="different ranks"):
            free_energy(Potential.constant(3, 0.0), two_ratio_zeta, 0.7)

    def test_closed_form_residual_is_evaluated(self, s3, fk3):
        # the residual of a constant-zeta root is |P| evaluated at the
        # root, through the scope's own entry point: two evaluations
        for d, quotient in ((2, None), (2, s3), (3, fk3)):
            zeta = GeometricPotential.constant(d, math.log(0.3))
            psi = Potential.from_letter_values(d, np.linspace(-1, 0.5, 2 * d))
            for beta in (-1.0, 0.0, 1.5):
                point = free_energy(psi, zeta, beta, quotient=quotient,
                                    n_max=30)
                at_root = combine((beta, psi), (point.t, zeta))
                P = (full_pressure(at_root) if quotient is None else
                     restricted_pressure(at_root, quotient, n_max=30))
                assert point.evaluations == 2
                assert point.residual == abs(P.value), (d, beta)

    def test_closed_form_refuses_as_the_root_loop_does(self, monkeypatch):
        # zeta of scale 1e-9 puts delta near 1.1e9: a constant one is
        # refused like a two-ratio one, whose Newton steps leave U_MAX
        for zeta in (GeometricPotential.constant(2, -1e-9),
                     GeometricPotential.from_letter_values(
                         2, [-1e-9, -1e-9, -2e-9, -2e-9])):
            with pytest.raises(NumericError,
                               match=r"step left \[-1e\+06, 1e\+06\]"):
                delta(zeta)
        # a pressure that is not affine in u fails the certificate at t
        exact = spectra_mod.full_pressure

        def skewed(pot, tol=1e-13):
            res = exact(pot, tol=tol)
            res.value *= 1 + 1e-6
            return res

        monkeypatch.setattr(spectra_mod, "full_pressure", skewed)
        with pytest.raises(NumericError, match="certificate failed"):
            delta(GeometricPotential.constant(2, math.log(0.5)))

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

    def test_extrapolated_delta_matches_reference_bisection(self, fk3):
        # free-kill quotients are the one extrapolated scope left: delta,
        # and the curve points of a letter potential psi
        zeta = GeometricPotential.from_letter_values(3, ZETA3)
        letters = Potential.from_letter_values(3, FK3_PSI)
        got = delta(zeta, quotient=fk3, n_max=30)
        curve = free_energy_curve(letters, zeta, FK3_BETAS, quotient=fk3,
                                  n_max=30)
        cases = [(Potential.constant(3, 0.0), 0.0, got)] + [
            (letters, beta, point)
            for beta, point in zip(FK3_BETAS, curve.points)]
        for psi, beta, point in cases:
            def pressure(u):
                return restricted_pressure(combine((beta, psi), (u, zeta)),
                                           fk3, n_max=30).value

            want = oracles.bisect_root(pressure, -16.0, 16.0)
            assert point.method == "extrapolated"
            assert abs(point.t - want) <= 1e-9, (beta, point.t, want)

    def test_free_kill_evaluation_budget(self, fk3):
        # the secant steps from a first slope of min zeta take at most 7
        # growth fits per point on average and 8 at most on this grid
        zeta = GeometricPotential.from_letter_values(3, ZETA3)
        betas = np.linspace(-4, 4, 9)
        curve = free_energy_curve(Potential.constant(3, -1.0), zeta, betas,
                                  quotient=fk3, n_max=30)
        evals = [p.evaluations for p in curve.points]
        assert np.mean(evals) <= 7 and max(evals) <= 8, evals
        # a constant zeta keeps its closed form: one fit per point, and
        # one more at the root for its residual
        flat = GeometricPotential.constant(3, math.log(0.25))
        curve = free_energy_curve(Potential.constant(3, -1.0), flat, betas,
                                  quotient=fk3, n_max=30)
        assert [p.evaluations for p in curve.points] == [2] * len(betas)

    def test_free_kill_rounds_fit_every_live_row_at_once(self, fk3,
                                                         monkeypatch):
        # each Newton round makes one call of the free-kill route with all
        # live rows, and no one-potential pressure; the roots are those of
        # the fits one row at a time (pinned)
        calls = []

        def spy(*args, **kwargs):
            evaluate, method, result = pressure_mod.scope_rows(*args,
                                                               **kwargs)

            def counted(values, start=None):
                calls.append(len(values))
                return evaluate(values, start)
            return counted, method, result

        def no_single_row(*args, **kwargs):
            raise AssertionError("a one-potential pressure in the root loop")

        monkeypatch.setattr(spectra_mod, "scope_rows", spy)
        monkeypatch.setattr(spectra_mod, "restricted_pressure", no_single_row)
        zeta = GeometricPotential.from_letter_values(3, ZETA3)
        psi = Potential.from_letter_values(3, FK3_PSI)
        curve = free_energy_curve(psi, zeta, [-1.0, 0.0, 1.0], quotient=fk3,
                                  n_max=30)
        evals = [p.evaluations for p in curve.points]
        assert calls == [sum(e > k for e in evals) for k in range(max(evals))]
        assert calls == [3] * 6
        assert [vars(p) for p in curve.points] == [
            vars(spectra_mod.FreeEnergyPoint(beta, t, sigma, "extrapolated",
                                             residual, 6))
            for beta, t, sigma, residual in FK3_CURVE_PINS]

    @pytest.mark.parametrize("scope", ["full", "s3"])
    def test_evaluations_per_point(self, two_ratio_zeta, psi_minus_one, s3,
                                   scope):
        # the root finder (Newton on these exact scopes) converges
        # superlinearly; bisection to the same tolerance takes about 39
        # pressure evaluations per point here
        quotient = s3 if scope == "s3" else None
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                  quotient=quotient)
        evals = [p.evaluations for p in curve.points]
        assert len(evals) == 161
        assert np.mean(evals) <= 10 and max(evals) <= 12

    def test_exact_scopes_never_fit(self, two_ratio_zeta, psi_minus_one,
                                    s3, z1, z2, z3, monkeypatch):
        # exact scopes solve on batched rows of their route: no growth fit,
        # and no one-potential pressure as the fitted rows take
        def no_fit(*args, **kwargs):
            raise AssertionError("a fitted row on an exact scope")

        monkeypatch.setattr(pressure_mod, "growth_rate", no_fit)
        monkeypatch.setattr(spectra_mod, "restricted_pressure", no_fit)
        zeta3 = GeometricPotential.from_letter_values(3, ZETA3)
        psi3 = Potential.constant(3, -1.0)
        rank_deficient = FreeAbelianQuotient(3, 2, [[1, 0], [0, 1], [1, 1]])
        for psi, zeta, quotient in (
                (psi_minus_one, two_ratio_zeta, None),
                (psi_minus_one, two_ratio_zeta, s3),
                (psi_minus_one, two_ratio_zeta, z1),
                (psi_minus_one, two_ratio_zeta, z2),
                (psi3, zeta3, z3), (psi3, zeta3, rank_deficient)):
            free_energy(psi, zeta, 0.5, quotient=quotient)
            free_energy_curve(psi, zeta, [-1.0, 1.0], quotient=quotient)
            delta(zeta, quotient=quotient)

    def test_restricted_uses_quotient(self, two_ratio_zeta, z2):
        # Z^2 is amenable: the exact twisted t_N equals t
        full = free_energy(None, two_ratio_zeta, 0.0)
        rest = free_energy(None, two_ratio_zeta, 0.0, quotient=z2)
        assert rest.method == "exact-twisted"
        assert rest.sigma == 0.0
        assert abs(rest.t - full.t) <= 1e-9

    def test_restricted_extrapolated_on_free_kill(self, fk3):
        zeta = GeometricPotential.from_letter_values(3, ZETA3)
        full = free_energy(None, zeta, 0.0)
        rest = free_energy(None, zeta, 0.0, quotient=fk3, n_max=30)
        assert rest.method == "extrapolated"
        assert rest.sigma > 0
        assert rest.t <= full.t + 3 * rest.sigma + 1e-9


def _scope_case(name, finite_cases):
    """(psi, zeta, quotient) of one exact scope for the Newton tests."""
    rng = np.random.default_rng(70)
    quotient = {"s3": "s3", "zmod2": "zmod2", "depth2": "s3",
                "d3-zmod2": "zmod2 [1,1,1]"}.get(name)
    quotient = finite_cases[quotient][1] if quotient else None
    if name.startswith("d3"):
        zeta = GeometricPotential.from_letter_values(
            3, np.log([0.5, 0.5, 1 / 3, 1 / 3, 0.25, 0.25]))
        return (Potential.from_letter_values(3, rng.uniform(-0.5, 0.5, 6)),
                zeta, quotient)
    zeta = GeometricPotential.from_letter_values(
        2, np.log([0.5, 0.5, 1 / 3, 1 / 3]))
    if name == "depth2":
        windows, _ = window_states(2, 2)
        return (Potential(2, 2, rng.uniform(-0.5, 0.5, len(windows))), zeta,
                quotient)
    return (Potential.from_letter_values(2, [-0.2, 0.3, -0.6, 0.1]), zeta,
            quotient)


ZETA3 = np.log([0.5, 0.5, 1 / 3, 1 / 3, 0.25, 0.25])
FK3_PSI = [0.3, -0.2, 0.1, 0.4, -0.5, 0.2]
FK3_BETAS = [-4.0, -1.0, 1.0, 4.0]
SCOPES = ["full", "s3", "zmod2", "depth2", "d3", "d3-zmod2"]
NEWTON_BETAS = [-2.0, -0.5, 0.0, 1.0, 3.0]
# (beta, t, sigma, residual) of the FK3 curve of FK3_PSI at n_max 30, from
# one restricted_pressure fit per row and round
FK3_CURVE_PINS = [
    (-1.0, 1.373479019836804, 0.004978507180881583, 1.473059804031688e-13),
    (0.0, 1.3755286264758626, 0.005125440685408453, 1.5708934210423477e-13),
    (1.0, 1.4437234395388976, 0.0047084320262243805, 2.1142593914981218e-13),
]


class TestNewtonCurves:
    """The batched Newton solver of exact scopes against independent
    references."""

    @pytest.mark.parametrize("name", SCOPES)
    def test_curve_matches_reference_bisection(self, name, finite_cases):
        psi, zeta, quotient = _scope_case(name, finite_cases)
        curve = free_energy_curve(psi, zeta, NEWTON_BETAS, quotient=quotient)
        for beta, point in zip(NEWTON_BETAS, curve.points):
            def pressure(u):
                pot = combine((beta, psi), (u, zeta))
                if quotient is None:
                    return full_pressure(pot).value
                return restricted_pressure(pot, quotient).value

            want = oracles.bisect_root(pressure, -16.0, 16.0)
            assert abs(point.t - want) <= 1e-10, (beta, point.t, want)
            assert point.residual <= 1e-9
            assert point.method == "exact-eigenvalue" and point.sigma == 0

    @pytest.mark.parametrize("name", SCOPES)
    def test_one_point_equals_its_curve_row(self, name, finite_cases):
        psi, zeta, quotient = _scope_case(name, finite_cases)
        curve = free_energy_curve(psi, zeta, NEWTON_BETAS, quotient=quotient)
        for beta, point in zip(NEWTON_BETAS, curve.points):
            one = free_energy(psi, zeta, beta, quotient=quotient)
            assert abs(one.t - point.t) <= 1e-10

    @pytest.mark.parametrize("name", SCOPES)
    def test_rows_certified_and_slopes_are_derivatives(self, name, finite_cases):
        # every row's enclosure is within tol, and the slope from the
        # Perron vectors is dP/du (central differences, h = 1e-5)
        psi, zeta, quotient = _scope_case(name, finite_cases)
        depth = max(psi.depth, zeta.depth)
        a = psi.as_depth(depth).values
        z = zeta.as_depth(depth).values
        betas = np.array(NEWTON_BETAS)[:, None]
        h, tol = 1e-5, 1e-13
        evaluate = scope_rows(zeta.d, depth, quotient, z, tol)[0]
        rows = [evaluate(betas * a + u * z) for u in (-h, 0.0, h)]
        # a warm start may be any positive vectors; the slopes must not
        # depend on them
        skewed = np.random.default_rng(3).uniform(
            0.1, 1.0, (len(betas), len(z)))
        rows.append(evaluate(betas * a, start=(skewed, skewed[::-1])))
        fd = (rows[2].values - rows[0].values) / (2 * h)
        for row in rows[1], rows[3]:
            assert (row.residuals <= tol).all()
            assert np.abs(row.slopes - fd).max() <= 1e-7
            assert (row.slopes <= z.max()).all()
            assert (row.slopes >= z.min()).all()

    @pytest.mark.parametrize("name", ["full", "s3"])
    def test_roots_beyond_float_range(self, name, finite_cases):
        # beta psi + u zeta reaches about +-800 along the Newton steps,
        # beyond exp's range; each row is tilted, so every evaluation stays
        # finite and the roots match bisection on the tilted pressures
        psi, zeta, quotient = _scope_case(name, finite_cases)
        moved = Potential(2, 1, psi.values + 400.0)
        curve = free_energy_curve(moved, zeta, [-2.0, 2.0],
                                  quotient=quotient)
        for beta, point in zip((-2.0, 2.0), curve.points):
            def pressure(u):
                pot = combine((beta, moved), (u, zeta))
                if quotient is None:
                    return full_pressure(pot).value
                return restricted_pressure(pot, quotient).value

            # |u| <= 1300 keeps the spread of u zeta inside exp's range
            want = oracles.bisect_root(pressure, -1300.0, 1300.0,
                                       u_tol=1e-11)
            assert abs(want) > 700
            assert abs(point.t - want) <= 1e-9

    def test_uncertified_roots_raise(self, two_ratio_zeta, s3,
                                     monkeypatch):
        # the root of delta is about 1.244: a U_MAX below it stops the
        # Newton steps, and a single round cannot certify it
        with monkeypatch.context() as m:
            m.setattr(spectra_mod, "U_MAX", 1.0)
            with pytest.raises(NumericError, match="Newton step left"):
                delta(two_ratio_zeta, quotient=s3)
        monkeypatch.setattr(spectra_mod, "NEWTON_MAX_ROUNDS", 1)
        with pytest.raises(NumericError, match="certificate failed"):
            delta(two_ratio_zeta, quotient=s3)

    def test_s3_curve_takes_few_evaluations(self, two_ratio_zeta,
                                            psi_minus_one, s3):
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta, quotient=s3)
        evals = [p.evaluations for p in curve.points]
        assert len(evals) == 161
        assert np.mean(evals) <= 5


def _lattice_case(name):
    """(psi, zeta, quotient) of a free abelian scope for the twisted
    Newton tests; the psi are not inverse-symmetric, so theta* != 0."""
    rng = np.random.default_rng(71)
    if name in ("z3", "rank-deficient"):
        zeta = GeometricPotential.from_letter_values(3, ZETA3)
        vectors = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]] if name == "z3"
                   else [[1, 0], [0, 1], [1, 1]])
        return (Potential.from_letter_values(3, rng.uniform(-0.5, 0.5, 6)),
                zeta, FreeAbelianQuotient(3, len(vectors[0]), vectors))
    zeta = GeometricPotential.from_letter_values(
        2, np.log([0.5, 0.5, 1 / 3, 1 / 3]))
    vectors = [[1], [0]] if name == "z1" else [[1, 0], [0, 1]]
    if name == "z2-depth2":
        windows, _ = window_states(2, 2)
        psi = Potential(2, 2, rng.uniform(-0.5, 0.5, len(windows)))
    else:
        psi = Potential.from_letter_values(2, [-0.2, 0.3, -0.6, 0.1])
    return psi, zeta, FreeAbelianQuotient(2, len(vectors[0]), vectors)


LATTICE_SCOPES = ["z1", "z2", "z2-depth2", "z3", "rank-deficient"]


class TestTwistedCurves:
    """The batched Newton solver on free abelian quotients, where each
    round minimises the twisted pressure, against bisection on the
    one-potential twisted pressure."""

    @pytest.mark.parametrize("name", LATTICE_SCOPES)
    def test_curve_matches_reference_bisection(self, name):
        # the bracket is 0.1 wide around each root (the oracle checks the
        # sign change); far from it a twist minimum is slow to solve
        psi, zeta, quotient = _lattice_case(name)
        betas = NEWTON_BETAS[::2]
        curve = free_energy_curve(psi, zeta, betas, quotient=quotient)
        for beta, point in zip(betas, curve.points):
            def pressure(u):
                return restricted_pressure(combine((beta, psi), (u, zeta)),
                                           quotient).value

            want = oracles.bisect_root(pressure, point.t - 0.05,
                                       point.t + 0.05, u_tol=1e-12)
            assert abs(point.t - want) <= 1e-10, (beta, point.t, want)
            assert point.residual <= 1e-9
            assert point.method == "exact-twisted" and point.sigma == 0

    @pytest.mark.parametrize("name", LATTICE_SCOPES)
    def test_one_point_equals_its_curve_row(self, name):
        psi, zeta, quotient = _lattice_case(name)
        curve = free_energy_curve(psi, zeta, NEWTON_BETAS, quotient=quotient)
        for beta, point in zip(NEWTON_BETAS, curve.points):
            one = free_energy(psi, zeta, beta, quotient=quotient)
            assert abs(one.t - point.t) <= 1e-10

    def test_rank_mismatch_raises(self):
        # rank-3 psi and zeta on a quotient of F2
        psi, zeta, _ = _lattice_case("z3")
        with pytest.raises(ValidationError, match="rank mismatch"):
            free_energy_curve(psi, zeta, NEWTON_BETAS, quotient=(
                FreeAbelianQuotient(2, 2, [[1, 0], [0, 1]])))

    @pytest.mark.parametrize("name", LATTICE_SCOPES)
    def test_slopes_are_derivatives_of_the_minimum(self, name):
        # envelope theorem: d/du lambda_N(f + u zeta) is the integral of
        # zeta at the minimising twist (central differences, h = 1e-5)
        psi, zeta, quotient = _lattice_case(name)
        depth = max(psi.depth, zeta.depth)
        pattern = transfer_pattern(zeta.d, depth)
        G = twist_table(quotient, window_states(zeta.d, depth)[0])[1]
        a = psi.as_depth(depth).values
        z = zeta.as_depth(depth).values
        betas = np.array(NEWTON_BETAS)[:, None]
        h = 1e-5
        rows = [twisted_rows(pattern, G, betas * a + u * z, z)
                for u in (-h, 0.0, h)]
        fd = (rows[2].values - rows[0].values) / (2 * h)
        assert np.abs(rows[1].slopes - fd).max() <= 1e-7
        assert (rows[1].slopes <= z.max()).all()
        assert (rows[1].residuals <= 1e-12).all()
        assert np.abs(rows[1].start[2]).max() > 1e-3


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
        assert res.eta == pytest.approx(1.0, abs=1e-9)
        assert res.sigma == 0.0 and res.method == "exact-twisted"
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

    def test_legendre_matches_per_alpha_argmin(self, curve):
        # alphas below alpha-, at both ends, inside and above alpha+,
        # against a per-alpha loop over the grid
        slopes = curve.slopes()
        lo, hi = -float(slopes.max()), -float(slopes.min())
        w = hi - lo
        alphas = [lo - 0.5, lo - 1e-3, lo, lo + 0.1 * w, lo + 0.5 * w,
                  hi - 0.1 * w, hi, hi + 1e-3, hi + 0.5]
        spec = legendre(curve, np.array(alphas))
        betas, ts = curve.betas.tolist(), curve.t_values.tolist()
        want_vals, want_flags = [], []
        for a in alphas:
            if a < lo - 1e-12 or a > hi + 1e-12:
                want_vals.append(math.nan)
                want_flags.append("outside")
                continue
            obj = [t + b * a for t, b in zip(ts, betas)]
            j = min(range(len(obj)), key=obj.__getitem__)
            want_vals.append(obj[j])
            want_flags.append("endpoint" if j in (0, len(obj) - 1)
                              else "interior")
        assert set(want_flags) == {"outside", "endpoint", "interior"}
        assert spec.flags == want_flags
        np.testing.assert_array_equal(spec.b_values, want_vals)
        np.testing.assert_array_equal(spec.alphas, alphas)

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
        inside = legendre(curve, [mid]).b_values[0]
        assert not math.isnan(inside) and inside > 0
        outside = legendre(curve, [spec.alpha_plus + 1.0]).b_values[0]
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

    def test_curve_builds_no_ball(self, two_ratio_zeta, monkeypatch):
        # the twisted pressure needs the window graph only: no evaluation
        # of the curve's roots builds a ball or runs a fiber DP
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
        assert {p.method for p in curve.points} == {"exact-twisted"}
        assert calls == []

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
        # round(0.2) = 0 steps: a one-point grid has no Legendre transform
        with pytest.raises(ValidationError, match="two or more points"):
            default_beta_grid(0, 1, 5)

    def test_beta_grid_ends_at_hi(self):
        # 1 / 0.3 rounds to 3 steps of 1/3
        assert default_beta_grid(0, 1, 0.3).tolist() == \
            np.linspace(0, 1, 4).tolist()

    def test_legendre_refuses_one_point(self, two_ratio_zeta,
                                        psi_minus_one):
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta, [0.0])
        with pytest.raises(ValidationError, match="two or more points"):
            legendre(curve)

    def test_legendre_refuses_a_concave_curve(self):
        # the slope falls from 1 to 0.5, and no sigma allows for it
        points = [FreeEnergyPoint(b, t, 0.0, "exact-eigenvalue", 0.0, 1)
                  for b, t in [(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)]]
        curve = FreeEnergyCurve(np.array([0.0, 1.0, 2.0]), points)
        with pytest.raises(ValidationError,
                           match=r"non-convex.*margin -0\.5\)"):
            legendre(curve)
