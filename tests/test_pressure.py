import math

import numpy as np
import pytest

import oracles
import freeshift.pressure as pressure_mod
from freeshift import (FiniteQuotient, FreeAbelianQuotient,
                       FreeKillQuotient, LiftedTransferMatrix, NumericError,
                       Potential, ResourceError, TransferMatrix,
                       ValidationError, divergence_probe, fiber_partition,
                       fiber_partition_many, free_energy_curve, full_pressure,
                       growth_rate, inverse_word, perron_eigen,
                       random_inverse_symmetric, restricted_pressure,
                       window_states)
from freeshift.pressure import (_perron_batch, extrapolated_pressure,
                                pressure_rows, scope_rows, transfer_pattern,
                                twist_table, twisted_rows)


def _lift_matrix(pot, q):
    """The lift's matrix: its pattern, column window * order + element
    weighted by exp(f(window))."""
    return (LiftedTransferMatrix(pot, q).pattern
            * np.repeat(np.exp(pot.values), q.table.shape[0]))


def _random_pot(d, depth, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    windows, _ = window_states(d, depth)
    return Potential(d, depth, rng.uniform(-scale, scale, len(windows)))


def _inverse(d, depth):
    """inverse[j]: the index of the inverse of window j."""
    windows, index = window_states(d, depth)
    return [index[inverse_word(w)] for w in windows]


def _refuse_twist_lapack(monkeypatch):
    """Make the LAPACK routines the twisted route may call raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK on the symmetric twisted route")
    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _symmetric_pot(d, depth, seed):
    """An inverse-symmetric depth-``depth`` potential: the lift of
    random_inverse_symmetric plus a random table, plus the inversion of
    that sum (a + b == b + a in floats, so the symmetry is exact)."""
    t = (random_inverse_symmetric(d, seed).as_depth(depth).values
         + _random_pot(d, depth, seed).values)
    return Potential(d, depth, t + t[_inverse(d, depth)])


# (n_max, held rate or None) of the tail-fit checks
FIT_CASES = [(n, lam) for n in (8, 13, 24, 40, 61) for lam in (None, 1.1)]


def _fit_window(ns, logs, lam):
    """(lengths, ys, columns) of the least squares the tail fit solves on a
    series with every term nonzero: the window past the leading quarter,
    ys = log a_n (- lam n), columns 1, log n and n (or 1/n when held)."""
    start = min(len(ns) // 4, len(ns) - 4)
    ns, ys = ns[start:], logs[start:]
    if lam is not None:
        ys = ys - lam * ns
    return ns, ys, [np.ones(len(ns)), np.log(ns),
                    ns if lam is None else 1.0 / ns]


# (quotient, depth, seed, n_max, shift) of the constant-shift checks; "fk2"
# is F2 with g2 killed, the renewal's twin of z1
SHIFT_CASES = (
    [(q, 1, 17, 40, c) for q in ("z1", "s3")
     for c in (-800.0, -200.0, 200.0, 800.0)]
    + [("fk2", 2, 1, 12, c) for c in (-800.0, -400.0, 400.0, 800.0)]
    + [(q, 3, 1, 10, 400.0) for q in ("z1", "fk2")])


# log a_n (n <= 10) of the ball DP on _random_pot(d, depth, seed=50 + depth)
# as computed by the window-indexed DP it replaced, with brute force below
# the window size; the two differ only by rounding (observed <= 3.6e-15).
# Rows: (quotient, depth, target, lengths with an empty fiber, pins); a
# None target is the identity, and the S3 target 2 is the image of g1.
BALL_DP_PINS = [
    ("s3", 1, None, [1],
     {2: 1.8455871443256795, 3: -0.8695933101288764, 4: 3.9644170839323722,
      9: 9.356785736806469, 10: 11.104631874619336}),
    ("s3", 1, 2, [2],
     {1: 1.1322591976637089, 3: 2.816687159131197, 4: 1.6468809845101506,
      9: 9.891413278401735, 10: 10.682278183951539}),
    ("s3", 2, None, [1],
     {2: 0.9320175046477872, 3: 0.9129743086865612, 4: 5.062204467489496,
      9: 10.878049647459578, 10: 12.392563242667158}),
    ("s3", 2, 2, [2],
     {1: 1.338156703231018, 3: 3.1540585808564234, 4: 3.422603463981912,
      9: 11.187912827863634, 10: 12.25856522324015}),
    ("s3", 3, None, [1],
     {2: 1.8892602274974597, 3: 1.9272212693214867, 4: 5.018791480188538,
      9: 12.03674916991681, 10: 13.474433322394125}),
    ("s3", 3, 2, [2],
     {1: 1.5933920386957516, 3: 3.241217297529473, 4: 5.066071714187501,
      9: 11.936977207283881, 10: 13.372974691247027}),
    ("z1", 1, None, [],
     {1: 0.17119351042377629, 2: -0.3497189041372797,
      3: 1.4653308109079046, 4: 2.472466096412883, 9: 6.986929608403935,
      10: 7.948107596706036}),
    ("z1", 1, (1,), [],
     {1: 0.8848823925408335, 2: 1.749223083524555, 3: 1.9209373572625283,
      4: 2.7444722512996025, 9: 7.614816895849888, 10: 8.558804586158546}),
    ("z1", 2, None, [],
     {1: 1.1810407520527606, 2: 1.0317548490080175, 3: 2.9158738872598295,
      4: 4.673029678957301, 9: 10.858686846582962,
      10: 12.084163876962872}),
    ("z1", 2, (1,), [],
     {1: 0.23152590960486563, 2: 2.0271100934857973, 3: 2.883062570091673,
      4: 3.8150535313584952, 9: 10.733659420114318,
      10: 12.095665018265137}),
    ("z1", 3, None, [],
     {1: 1.5796971903547048, 2: 2.4017097228446476, 3: 3.372859878824631,
      4: 5.17077731043595, 9: 11.63837501877477, 10: 12.929410657749226}),
    ("z1", 3, (1,), [],
     {1: 0.9965904693777559, 2: 3.101737168970332, 3: 4.400536484896287,
      4: 5.190769873969524, 9: 11.733993545250286,
      10: 13.084886005174932}),
    ("z2", 1, None, [1, 2, 3, 5, 7, 9],
     {4: 1.533650974607307, 10: 6.729970097082607}),
    ("z2", 1, (1, 0), [2, 4, 6, 8, 10],
     {1: 0.8848823925408335, 3: 0.5330798919099364, 9: 6.439765564631802}),
    ("z2", 2, None, [1, 2, 3, 5, 7, 9],
     {4: 3.2586977204789975, 10: 9.337762455711735}),
    ("z2", 2, (1, 0), [2, 4, 6, 8, 10],
     {1: 0.23152590960486563, 3: 1.4774313964852015,
      9: 8.410755250293377}),
    ("z2", 3, None, [1, 2, 3, 5, 7, 9],
     {4: 4.302705925975304, 10: 11.63153121800788}),
    ("z2", 3, (1, 0), [2, 4, 6, 8, 10],
     {1: 0.9965904693777559, 3: 2.847262898163874, 9: 10.440136711774858}),
    ("z3", 1, None, [1, 2, 3, 5, 7, 9],
     {4: 3.031140350229299, 10: 11.127473440350185}),
    ("z3", 1, (1, 0, 1), [1, 3, 5, 7, 9],
     {2: 2.1504380144725297, 4: 3.711406870622854,
      10: 12.206490805368396}),
    ("z3", 2, None, [1, 2, 3, 5, 7, 9],
     {4: 4.16025253722194, 10: 13.203178957252701}),
    ("z3", 2, (1, 0, 1), [1, 3, 5, 7, 9],
     {2: 0.7061552681855057, 4: 3.646984827427699, 10: 12.70229690904878}),
    ("z3", 3, None, [1, 2, 3, 5, 7, 9],
     {4: 4.865939638890578, 10: 14.150277178065561}),
    ("z3", 3, (1, 0, 1), [1, 3, 5, 7, 9],
     {2: 2.3834208364184857, 4: 4.5769801731546815,
      10: 14.02718837336636}),
]


class TestFullPressure:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_zero_potential_closed_form(self, d):
        res = full_pressure(Potential.constant(d, 0.0))
        assert res.value == pytest.approx(math.log(2 * d - 1), abs=1e-12)
        assert res.method == "exact-eigenvalue"
        assert res.sigma == 0.0

    def test_constant_shift(self):
        p0 = full_pressure(Potential.constant(2, 0.0)).value
        pc = full_pressure(Potential.constant(2, 0.7)).value
        assert pc == pytest.approx(p0 + 0.7, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_dense_eigensolver(self, depth):
        pot = _random_pot(2, depth, seed=depth + 40)
        tm = TransferMatrix(pot)
        dense = max(abs(np.linalg.eigvals(tm.pattern * np.exp(pot.values))))
        res = full_pressure(pot)
        assert res.value == pytest.approx(math.log(dense), abs=1e-10)

    def test_partition_growth_matches_pressure(self):
        # log Z_n / n converges to P at rate O(1/n) for depth-1 potentials
        pot = _random_pot(2, 1, seed=1)
        P = full_pressure(pot).value
        z20 = math.log(oracles.partition_sum_matrix(pot, 30))
        z21 = math.log(oracles.partition_sum_matrix(pot, 31))
        assert z21 - z20 == pytest.approx(P, abs=1e-3)

    def test_equals_the_full_shift_route(self):
        # full_pressure and row 0 of the full-shift route of scope_rows are
        # two encodings of one solve: bit for bit the same result, on 80
        # seeded potentials of ranks 2-4 and depths 1-3
        for seed in range(80):
            d, depth = 2 + seed % 3, 1 + seed // 3 % 3
            pot = _random_pot(d, depth, seed=300 + seed)
            a, b = full_pressure(pot), restricted_pressure(pot, None)
            assert (a.value, a.residual, a.method, a.sigma, a.detail) == \
                (b.value, b.residual, b.method, b.sigma, b.detail), seed


class TestPartitionSums:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_brute_sup_sums(self, depth):
        pot = _random_pot(2, depth, seed=depth + 7)
        for n in range(max(depth, 1), 7):
            want = sum(math.exp(oracles.birkhoff_sup_sum(pot, w))
                       for w in oracles.brute_words(2, n))
            assert oracles.partition_sum_matrix(pot, n) == pytest.approx(
                want, rel=1e-11), n

    def test_zero_potential_counts_words(self):
        pot = Potential.constant(2, 0.0)
        for n in range(1, 8):
            assert oracles.partition_sum_matrix(pot, n) == pytest.approx(
                oracles.brute_count(2, n), rel=1e-12)

    def test_window_size_validation(self):
        pot = _random_pot(2, 3, seed=2)
        with pytest.raises(ValueError):
            oracles.partition_sum_matrix(pot, 2)


class TestPerron:
    def test_matches_numpy_on_random_positive_matrices(self):
        rng = np.random.default_rng(8)
        for n in (3, 10, 60):
            M = rng.uniform(0.1, 2.0, size=(n, n))
            res = perron_eigen(M)
            assert res.rho == pytest.approx(
                max(abs(np.linalg.eigvals(M))), rel=1e-12)
            assert res.residual <= 1e-12 * max(1.0, res.rho)
            right = _perron_batch(M, np.ones((1, n)), 1e-13)[3]
            assert (right > 0).all()

    def test_left_eigenvector(self):
        rng = np.random.default_rng(21)
        M = rng.uniform(0.5, 1.5, size=(6, 6))
        rho, _, _, _, left = _perron_batch(M, np.ones((1, 6)), 1e-13)
        assert np.allclose(left[0] @ M, rho[0] * left[0], atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            perron_eigen(np.ones((2, 3)))

    def test_weights_scale_columns(self):
        rng = np.random.default_rng(13)
        M = rng.uniform(0.5, 1.5, size=(5, 5))
        w = rng.uniform(0.1, 2.0, size=5)
        res = perron_eigen(M, weights=w)
        ref = perron_eigen(M * w)
        assert res.rho == pytest.approx(ref.rho, rel=1e-13)
        rho, _, _, _, left = _perron_batch(M, w[None], 1e-13)
        assert np.allclose(left[0] @ (M * w), rho[0] * left[0], atol=1e-12)
        with pytest.raises(ValidationError, match="weight per column"):
            perron_eigen(M, weights=w[:4])

    def test_period_2_block_matrix(self, monkeypatch):
        # bipartite structure: M has period 2, so its Collatz-Wielandt
        # ratios never pinch; it is refused, never answered wrongly, and
        # M^2 (aperiodic on each class) gives rho^2
        A = np.array([[0, 2.0], [0.5, 0]])
        monkeypatch.setattr(pressure_mod, "POWER_MAX_STEPS", 200)
        with pytest.raises(NumericError, match="did not converge"):
            perron_eigen(A)
        assert perron_eigen(A @ A).rho == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        M = rng.uniform(0.5, 1.5, size=(12, 12))
        monkeypatch.setattr(pressure_mod, "POWER_MAX_STEPS", 200)
        with pytest.raises(NumericError):
            perron_eigen(M, tol=0.0)

    def test_overflow_fails_fast(self, monkeypatch):
        # e^710 leaves the float range, but full_pressure solves the
        # matrix tilted to largest weight 1 and adds the tilt back
        got = full_pressure(Potential.constant(2, 710.0)).value
        assert got == pytest.approx(math.log(3) + 710.0, abs=1e-12)
        # a row sum of 2e308 leaves the float range; with one iteration
        # allowed the error must name the overflow, not the unreached
        # enclosure
        monkeypatch.setattr(pressure_mod, "POWER_MAX_STEPS", 1)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="float range"):
            perron_eigen(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("shift", [-800.0, 800.0])
    def test_exact_routes_shift_by_constants(self, s3, depth, shift):
        # P(f + c) = P(f) + c, on both exact routes, far beyond the range
        # where exp(f + c) fits a float
        pot = _random_pot(2, depth, seed=60 + depth)
        moved = Potential(2, depth, pot.values + shift)
        assert full_pressure(moved).value == pytest.approx(
            full_pressure(pot).value + shift, abs=1e-12)
        assert restricted_pressure(moved, s3).value == pytest.approx(
            restricted_pressure(pot, s3).value + shift, abs=1e-12)

    def test_zero_entries_fail_fast(self):
        # the second row of M v is 0, so its Collatz-Wielandt ratio is
        # undefined; the error must come at the first check, not after
        # max_iter iterations of nan enclosures
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="zero entries"):
            perron_eigen(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix_fails_fast(self):
        # the first power step is all zero: no ratio to enclose rho with
        with pytest.raises(NumericError, match="zero row block"):
            perron_eigen(np.zeros((2, 2)))


class TestWindowGraph:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_strongly_connected(self, d, m):
        # the transfer matrices rely on this; it holds by construction and
        # is proved here once instead of on every evaluation
        adj = pressure_mod.transfer_pattern(d, m) > 0
        assert adj.shape == (len(window_states(d, m)[0]),) * 2
        for edges in (adj, adj.T):
            seen = np.zeros(len(adj), dtype=bool)
            seen[0] = True
            frontier = seen.copy()
            while frontier.any():
                frontier = edges[frontier].any(axis=0) & ~seen
                seen |= frontier
            assert seen.all()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lifted_graphs_strongly_connected(self, finite_cases, depth):
        # every lift over a finite quotient of F_d, d >= 2, is strongly
        # connected, so the full Perron vector copied to every element is
        # its Perron vector: restricted_pressure rests on this
        for name, (d, q, _) in finite_cases.items():
            pot = Potential.constant(d, 0.0, depth=depth)
            adj = _lift_matrix(pot, q) > 0
            for edges in (adj, adj.T):
                seen = np.zeros(len(adj), dtype=bool)
                seen[0] = True
                frontier = seen.copy()
                while frontier.any():
                    frontier = edges[frontier].any(axis=0) & ~seen
                    seen |= frontier
                assert seen.all(), (name, depth)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_lift_carries_the_full_pressure(self, finite_cases, depth):
        # the lift's weights, checked by a dense eigensolver: its spectral
        # radius is the full transfer matrix's (the Perron vector copied to
        # every element is an eigenvector)
        for seed, (name, (d, q, _)) in enumerate(finite_cases.items()):
            pot = _random_pot(d, depth, seed)
            rho = np.abs(np.linalg.eigvals(_lift_matrix(pot, q))).max()
            assert abs(math.log(rho) - full_pressure(pot).value) <= 1e-12, \
                (name, depth)

    def test_lift_refuses_what_it_cannot_build(self, z1, s3):
        with pytest.raises(ValidationError, match="finite quotient"):
            LiftedTransferMatrix(Potential.constant(2, 0.0), z1)
        with pytest.raises(ValidationError, match="rank mismatch"):
            LiftedTransferMatrix(Potential.constant(3, 0.0), s3)
        big = FiniteQuotient(2, (np.arange(750)[:, None]
                                 + np.arange(750)) % 750, 0, [1, 2])
        with pytest.raises(ResourceError, match="restricted_pressure"):
            LiftedTransferMatrix(Potential.constant(2, 0.0, depth=3), big)


class TestFiberPartition:
    def test_counts_match_brute_for_all_bundled(self, bundle):
        for name, (d, q, (ident, img, mul)) in bundle.items():
            n_max = 6 if d == 2 else 5
            want = oracles.brute_fiber_sums(d, n_max, ident, img, mul)
            got = fiber_partition(Potential.constant(d, 0.0), q, n_max)
            assert np.allclose(np.exp(got.log_values), want,
                               rtol=1e-10, atol=1e-12), name

    def test_weighted_sums_match_brute(self, bundle):
        # exact sup-sum weighting, including the depth-2 and depth-3
        # boundary terms and the lengths below the window, on the ball DP
        # and on the renewal (F2 with g2 killed)
        cases = {"z2": bundle["z2"], "zmod2": bundle["zmod2"],
                 "fk2": (2, FreeKillQuotient(2, {1}),
                         oracles.freekill_ops({1}))}
        for depth in (1, 2, 3):
            pot = _random_pot(2, depth, seed=depth + 3)
            table = {w: pot.value(w) for w in window_states(2, depth)[0]}
            for name, (d, q, (ident, img, mul)) in cases.items():
                want = oracles.brute_fiber_sums(
                    d, 6, ident, img, mul,
                    sup_sum=lambda w: oracles.brute_sup_sum(2, depth, table,
                                                            w))
                got = fiber_partition(pot, q, 6)
                assert np.allclose(np.exp(got.log_values), want,
                                   rtol=1e-9), (name, depth)

    def test_non_identity_targets(self, bundle):
        d, q, (ident, img, mul) = bundle["z2"]
        target = (1, 1)
        want = oracles.brute_fiber_sums(d, 6, ident, img, mul, target=target)
        got = fiber_partition(Potential.constant(2, 0.0), q, 6, target=target)
        assert np.allclose(np.exp(got.log_values), want, rtol=1e-10)

    def test_renewal_and_ball_routes_agree(self):
        # killing g2 in F2 and abelianizing onto Z with b -> 0 define the
        # same kernel, but run through the renewal and lattice DP engines
        fk = FreeKillQuotient(2, {1})
        z1 = FreeAbelianQuotient(2, 1, [[1], [0]])
        wide = Potential.from_letter_values(2, [10, -10, 0.3, -0.7])
        for pot, n_max in ((_random_pot(2, 1, seed=13), 25), (wide, 40)):
            a = fiber_partition(pot, fk, n_max)
            b = fiber_partition(pot, z1, n_max)
            assert np.allclose(a.log_values, b.log_values, atol=1e-9,
                               equal_nan=True)
            # matched non-identity targets: g1^2 <-> lattice point (2,)
            a2 = fiber_partition(pot, fk, n_max, target=(0, 0))
            b2 = fiber_partition(pot, z1, n_max, target=(2,))
            assert np.allclose(a2.log_values, b2.log_values, atol=1e-9,
                               equal_nan=True)

    @pytest.mark.parametrize("letters, n_max, want", [
        ((10, -10, 0, 0, 0, 0), 120, 168.804344958672),
        ((10, 10, -10, -10, 0, 0), 80, 786.837354717583),
    ])
    def test_tilted_renewal_matches_wide_range_references(
            self, fk3, letters, n_max, want):
        # references from a log-domain evaluation of the same renewal; a
        # single fixed tilt underflows the first case (log a_120 would sit
        # near -1224) and the second overflows untilted floats
        pot = Potential.from_letter_values(3, list(letters))
        logs = fiber_partition(pot, fk3, n_max).log_values
        assert np.isfinite(logs).all()
        assert logs[-1] == pytest.approx(want, abs=1e-9)

    # log a_n of the renewal as computed by the per-pair matrix loops it
    # replaced; the stacked-GEMM sums differ from them only by rounding
    # (observed <= 2.9e-14). Letters (10, -10, 0.3, -0.7) on F2 are the
    # drifting potential whose identity fiber only the twisted ball DP
    # follows (see test_ball_dp_follows_drifting_potential).
    @pytest.mark.parametrize(
        "d, killed, letters, n_max, target, empty, pins", [
        (3, {2}, [-1.0] * 6, 40, (), [],
         {10: 1.492906414256191, 20: 5.289953695694436,
          40: 13.593235812155138}),
        (3, {2}, [0.3, -0.2, 0.1, 0.4, -0.5, 0.2], 80, (), [],
         {10: 12.101726357293867, 20: 26.608063122802232,
          40: 56.337596098001825, 80: 116.61750030443768}),
        (3, {2}, [0.3, -0.2, 0.1, 0.4, -0.5, 0.2], 80, (0,), [],
         {10: 12.074785115137637, 20: 26.624624281480653,
          40: 56.380246705220316, 80: 116.67550637547177}),
        (3, {2}, [0.3, -0.2, 0.1, 0.4, -0.5, 0.2], 80, (0, 2), [1],
         {10: 11.550913193989897, 20: 26.154949406150383,
          40: 55.948166842078706, 80: 116.26555149933142}),
        (2, {1}, [10.0, -10.0, 0.3, -0.7], 120, (), [],
         {10: 9.198628478918438, 20: 19.90466777846011,
          40: 41.638971881162014, 80: 85.44391501985697,
          120: 129.39048624317942}),
        (3, {2}, [0.0] * 6, 160, (), [],
         {10: 11.49290641425619, 20: 25.289953695694432,
          40: 53.593235812155136, 80: 111.01407704547135,
          120: 168.8043449586719, 160: 226.7536831353341}),
    ], ids=["fk3-f-1", "fk3-asym-id", "fk3-asym-a", "fk3-asym-ac",
            "fk2-drift", "fk3-f0-160"])
    def test_renewal_matches_pinned_series(self, d, killed, letters, n_max,
                                           target, empty, pins):
        pot = Potential.from_letter_values(d, letters)
        logs = fiber_partition(pot, FreeKillQuotient(d, killed), n_max,
                               target=target).log_values
        assert list(np.flatnonzero(np.isneginf(logs)) + 1) == empty
        assert np.isfinite(np.delete(logs, np.array(empty, int) - 1)).all()
        for n, want in pins.items():
            assert logs[n - 1] == pytest.approx(want, rel=0, abs=1e-12), n

    @pytest.mark.parametrize("shift", [-200.0, -10.0, 10.0, 200.0])
    def test_retilt_is_exact_under_constant_shifts(self, fk3, shift):
        # a constant potential c scales a_n by e^(c n) exactly; the shifts
        # drive the tilt down and up, from 0 and from max f + log(2d-1)
        base = fiber_partition(Potential.constant(3, 0.0), fk3, 60)
        moved = fiber_partition(Potential.constant(3, shift), fk3, 60)
        assert np.allclose(moved.log_values - shift * moved.lengths,
                           base.log_values, rtol=0, atol=1e-9)

    def test_values_refuse_float_overflow(self, fk3):
        # log a_80 = 786.84 (the reference above) is beyond the float range;
        # the first length past log(float max) = 709.78 is named
        pot = Potential.from_letter_values(3, [10, 10, -10, -10, 0, 0])
        series = fiber_partition(pot, fk3, 80)
        log_max = np.log(np.finfo(float).max)
        first = int(np.argmax(series.log_values > log_max)) + 1
        assert 1 < first < 80
        with pytest.raises(NumericError, match=rf"a_{first} = exp"):
            series.values

    def test_values_that_fit_are_exponentials(self, fk3):
        series = fiber_partition(Potential.constant(3, 0.0), fk3, 40)
        assert np.array_equal(series.values, np.exp(series.log_values))

    def test_renewal_refuses_potential_range_beyond_floats(self, fk3):
        pot = Potential.from_letter_values(3, [800, 800, -800, -800, 0, 0])
        with pytest.raises(NumericError, match="too wide"):
            fiber_partition(pot, fk3, 10)

    @pytest.mark.parametrize(
        "name, depth, target, empty, pins", BALL_DP_PINS,
        ids=[f"{q}-depth{k}-{'id' if t is None else 'other'}"
             for q, k, t, _, _ in BALL_DP_PINS])
    def test_ball_dp_matches_pinned_series(self, bundle, name, depth, target,
                                           empty, pins):
        d, q, _ = bundle[name]
        pot = _random_pot(d, depth, seed=50 + depth)
        logs = fiber_partition(pot, q, 10, target=target).log_values
        assert list(np.flatnonzero(np.isneginf(logs)) + 1) == empty
        assert np.isfinite(np.delete(logs, np.array(empty, int) - 1)).all()
        for n, want in pins.items():
            assert logs[n - 1] == pytest.approx(want, rel=0, abs=1e-12), n

    @pytest.mark.parametrize(
        "name, depth, seed, n_max, shift", SHIFT_CASES,
        ids=[f"{c}-{q}" + (f"-depth{k}" if k > 1 else "")
             for q, k, _, _, c in SHIFT_CASES])
    def test_ball_dp_is_exact_under_constant_shifts(self, bundle, name, depth,
                                                    seed, n_max, shift):
        # adding c to f scales a_n by e^(c n) exactly, in both engines; at
        # |c| = 800 the untilted step weights e^(f + c) leave the float
        # range, and at depth >= 2 so do the steps before the first window
        # and the trailing-window completions (e^(2c) at depth 3)
        q = bundle[name][1] if name in bundle else FreeKillQuotient(2, {1})
        base = _random_pot(2, depth, seed)
        want = fiber_partition(base, q, n_max).log_values
        got = fiber_partition(Potential(2, depth, base.values + shift), q,
                              n_max)
        empty = np.isneginf(want)
        assert np.array_equal(np.isneginf(got.log_values), empty)
        assert np.allclose((got.log_values - shift * got.lengths)[~empty],
                           want[~empty], rtol=1e-12, atol=0)

    def test_ball_dp_refuses_sunken_target_mass(self, z1):
        # a-steps weigh e^-20 against the b-steps, so the mass reaching
        # the lattice point 25 sits about e^-500 below the peak of the
        # normalised DP; past the float range it would vanish
        pot = Potential.from_letter_values(2, [-20, -20, 0, 0])
        with pytest.raises(NumericError, match="lost precision"):
            fiber_partition(pot, z1, 40, target=(25,))

    def test_ball_dp_follows_drifting_potential(self, z1):
        # f = 10 <v, last letter> + (0, 0, 0.3, -0.7) drifts the walk by
        # about one lattice step per a-letter; the DP twisted by
        # theta* = -10 keeps the identity fiber at the peak, where the
        # untwisted DP lost it from n = 52 on. Killing g2 in F2 is the same
        # kernel on the renewal route.
        pot = Potential.from_letter_values(2, [10, -10, 0.3, -0.7])
        for target, fk_target in (((0,), ()), ((2,), (0, 0))):
            got = fiber_partition(pot, z1, 60, target=target).log_values
            want = fiber_partition(pot, FreeKillQuotient(2, {1}), 60,
                                   target=fk_target).log_values
            empty = np.isneginf(want)
            assert np.array_equal(np.isneginf(got), empty)
            assert np.allclose(got[~empty], want[~empty], rtol=1e-12,
                               atol=0)

    # (quotient, letter values, targets at lengths 2, N - 1 and N) of the
    # half-radius checks at N = 20; Z/50 with images (1, 0) has element
    # k at word length min(k, 50 - k), so ball(20) is a proper subset
    HALF_RADIUS_N = 20
    HALF_RADIUS_CASES = {
        "z2": (FreeAbelianQuotient(2, 2, [[1, 0], [0, 1]]),
               [0.2, -0.5, 0.4, -0.1], [(1, 1), (19, 0), (10, 10)]),
        "z1-drift": (FreeAbelianQuotient(2, 1, [[1], [0]]),
                     [10, -10, 0.3, -0.7], [(2,), (19,), (20,)]),
        "z/50": (FiniteQuotient(
            2, [[(i + j) % 50 for j in range(50)] for i in range(50)], 0,
            [1, 0]), [0.2, -0.5, 0.4, -0.1], [2, 19, 20]),
    }

    @pytest.mark.parametrize("name", sorted(HALF_RADIUS_CASES))
    def test_half_radius_ball_is_exact(self, name):
        # the DP at n_max N runs on ball(floor((N + r) / 2)), at 2N on a
        # larger ball; the first N terms agree, for each target alone
        # (its own r) and for all of them at once (the largest r)
        q, letters, far = self.HALF_RADIUS_CASES[name]
        n = self.HALF_RADIUS_N
        pot = Potential.from_letter_values(2, letters)
        targets = [q.identity] + far
        for group in [[t] for t in targets] + [targets]:
            short = fiber_partition_many(pot, q, n, group)
            long = fiber_partition_many(pot, q, 2 * n, group)
            for t in group:
                got = short[t].log_values
                want = long[t].log_values[:n]
                empty = np.isneginf(want)
                assert np.array_equal(np.isneginf(got), empty), (name, t)
                if t != q.identity:      # a_n(t) > 0 at n = |t|
                    assert np.isfinite(got[q.word_length([t], n) - 1])
                assert np.allclose(got[~empty], want[~empty], rtol=1e-12,
                                   atol=0), (name, t)

    @pytest.mark.parametrize("name", sorted(HALF_RADIUS_CASES))
    def test_target_beyond_n_max_is_refused(self, name):
        q, letters, far = self.HALF_RADIUS_CASES[name]
        pot = Potential.from_letter_values(2, letters)
        beyond = far[-1]                     # word length N
        with pytest.raises(ValidationError, match="within 19 letters"):
            fiber_partition(pot, q, self.HALF_RADIUS_N - 1, target=beyond)

    def test_period_lattice_structure(self, bundle):
        for name, (d, q, _) in bundle.items():
            series = fiber_partition(Potential.constant(d, 0.0), q, 8)
            p = series.period
            assert p == q.period(), name
            for n, lv in zip(series.lengths, series.log_values):
                if n % p != 0:
                    assert lv == -math.inf, (name, n)

    def test_many_targets_share_one_pass(self, z2):
        pot = Potential.constant(2, 0.0)
        res = fiber_partition_many(pot, z2, 8, [(0, 0), (1, 0), (1, 1)])
        assert set(res) == {(0, 0), (1, 0), (1, 1)}
        single = fiber_partition(pot, z2, 8, target=(1, 0))
        assert np.allclose(res[(1, 0)].log_values, single.log_values,
                           equal_nan=True)

    def test_ball_dp_stops_at_an_empty_level(self, z2):
        # at n_max 2 the DP indexes ball(1), and every length-2 word leaves
        # it: the second level is empty and both series end there
        res = fiber_partition_many(Potential.constant(2, 0.0), z2, 2,
                                   [(0, 0), (1, 0)])
        assert res[(0, 0)].log_values.tolist() == [-math.inf, -math.inf]
        assert res[(1, 0)].log_values.tolist() == [0.0, -math.inf]

    def test_ball_dp_state_budget(self, z2):
        # ball(5) of Z^2 has 61 elements, which the ball table may build,
        # but the DP needs them for each of the S = 5 extended states
        with pytest.raises(ResourceError, match="required 305, budget 100"):
            fiber_partition(Potential.constant(2, 0.0), z2, 10,
                            max_states=100)

    def test_budget_and_validation_errors(self, z2, fk3):
        pot2 = Potential.constant(2, 0.0)
        with pytest.raises(ResourceError):
            fiber_partition(pot2, z2, 30, max_states=10)
        with pytest.raises(ValidationError):
            fiber_partition(pot2, z2, 1)   # below the period
        with pytest.raises(ValidationError, match="n_max must be >= 1"):
            fiber_partition(pot2, z2, 0)
        pot3 = Potential.constant(3, 0.0)
        # the renewal's series of FK3 at n_max 6 hold 5 * 7 * 7^2 = 1715
        # entries: (survivors + 1)(n_max + 1) S^2
        with pytest.raises(ResourceError, match="required 1715"):
            fiber_partition(pot3, fk3, 6, max_states=1714)
        assert np.isfinite(fiber_partition(pot3, fk3, 6, max_states=1715)
                           .log_values[1])
        with pytest.raises(ValidationError, match="reduced survivor"):
            fiber_partition(pot3, fk3, 6, target=(4,))     # killed letter
        with pytest.raises(ValidationError, match="reduced survivor"):
            fiber_partition(pot3, fk3, 6, target=(0, 1))   # not reduced
        with pytest.raises(ValidationError):
            fiber_partition(pot2, fk3, 6)  # rank mismatch


class TestGrowthRate:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_recovers_polynomial_corrected_exponent(self, gamma):
        lam = math.log(3.0)
        ns = np.arange(1, 21)
        logs = 0.7 + lam * ns - gamma * np.log(ns)
        series = pressure_mod.FiberSeries(20, logs, period=1)
        fit = growth_rate(series)
        assert fit.lam == pytest.approx(lam, abs=1e-9)
        assert fit.gamma == pytest.approx(gamma, abs=1e-9)

    def test_sigma_covers_truncation_error(self, z2):
        series = fiber_partition(Potential.constant(2, 0.0), z2, 40)
        fit = growth_rate(series)
        assert abs(fit.lam - math.log(3)) <= max(3 * fit.sigma, 2e-3)
        # the local slopes over the fitted window settle monotonically
        lo, hi = fit.window
        n = series.lengths
        keep = (n >= lo) & (n <= hi) & np.isfinite(series.log_values)
        ns, ys = n[keep].astype(float), series.log_values[keep]
        inc = np.diff(np.diff(ys) / np.diff(ns))
        assert (inc >= -1e-9).all() or (inc <= 1e-9).all()

    def test_too_few_points(self, z2):
        series = fiber_partition(Potential.constant(2, 0.0), z2, 7)
        with pytest.raises(NumericError):
            growth_rate(series)

    @pytest.mark.parametrize("n_max, lam", FIT_CASES)
    def test_matches_lapack_least_squares(self, n_max, lam):
        # the Gram-Schmidt fit against numpy's SVD least squares
        for seed in range(4):
            rng = np.random.default_rng(seed)
            ns = np.arange(1, n_max + 1, dtype=float)
            logs = (0.7 + 1.1 * ns - 1.5 * np.log(ns)
                    + 0.05 * rng.standard_normal(n_max))
            fit = pressure_mod._tail_fit(
                pressure_mod.FiberSeries(n_max, logs, period=1), lam)
            ns, ys, cols = _fit_window(ns, logs, lam)
            coef, *_ = np.linalg.lstsq(np.column_stack(cols), ys, rcond=None)
            assert fit.gamma == pytest.approx(-coef[1], rel=1e-11)
            if lam is None:
                assert fit.lam == pytest.approx(coef[2], rel=1e-11)

    @pytest.mark.parametrize("n_max, lam", FIT_CASES)
    def test_sigmas_match_exact_rational_covariance(self, n_max, lam):
        # noise orthogonal to the columns on both halves of the window
        # leaves the half-window estimates equal to the full ones, so each
        # sigma is the regression stderr sqrt(s2 diag (X^T X)^-1), and the
        # diagonal, read back through rms, matches exact arithmetic
        rng = np.random.default_rng(n_max)
        ns = np.arange(1, n_max + 1, dtype=float)
        window, _, cols = _fit_window(ns, ns, lam)     # columns only
        X = np.column_stack(cols)
        noise = 0.02 * rng.standard_normal(len(window))
        for part in np.array_split(np.arange(len(window)), 2):
            coef, *_ = np.linalg.lstsq(X[part], noise[part], rcond=None)
            noise[part] -= X[part] @ coef
        logs = 0.7 + 1.1 * ns - 1.5 * np.log(ns)
        logs[-len(window):] += noise
        fit = pressure_mod._tail_fit(
            pressure_mod.FiberSeries(n_max, logs, period=1), lam)
        _, ys, cols = _fit_window(ns, logs, lam)
        coef, diag = oracles.exact_least_squares(cols, ys)
        m = fit.n_points
        read = [(sigma / fit.rms) ** 2 * (m - 3) / m
                for sigma in (fit.gamma_sigma, fit.sigma)]
        assert read[0] == pytest.approx(float(diag[1]), rel=1e-13, abs=0)
        assert fit.gamma == pytest.approx(-float(coef[1]), rel=1e-11)
        if lam is None:
            assert read[1] == pytest.approx(float(diag[2]), rel=1e-13,
                                            abs=0)
            assert fit.lam == pytest.approx(float(coef[2]), rel=1e-11)
        else:
            assert fit.lam == lam and fit.sigma == 0.0

    def test_fits_without_lapack(self, fk3, s3, monkeypatch):
        # the growth fit pages in no LAPACK routine
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK on the fit path")

        for name in ("lstsq", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        pot = Potential.from_letter_values(3, [-1.0] * 6)
        assert restricted_pressure(pot, fk3).method == "extrapolated"
        growth_rate(fiber_partition(pot, fk3, 40))
        divergence_probe(s3, _random_pot(2, 1, seed=5), n_max=36)


class TestRestrictedPressure:
    def test_finite_quotient_exact_routes_agree(self, bundle):
        pot = _random_pot(2, 1, seed=31)
        for name in ("zmod2", "s3"):
            _, q, _ = bundle[name]
            exact = restricted_pressure(pot, q)
            assert exact.method == "exact-eigenvalue"
            fitted = growth_rate(fiber_partition(pot, q, 40))
            assert abs(exact.value - fitted.lam) <= \
                max(3 * fitted.sigma, 1e-3), name

    def test_finite_quotients_equal_the_full_shift(self, zmod2, s3):
        # the Perron vector of the full transfer matrix, copied to every
        # element, is a positive eigenvector of the irreducible lift, so
        # lambda_N = P(f) on every finite quotient, whatever its period;
        # Z/750 at depth 3 has 27000 lifted states and needs none of them
        cyclic = {n: FiniteQuotient(2, (np.arange(n)[:, None]
                                        + np.arange(n)) % n, 0, images)
                  for n, images in ((5, [1, 2]), (6, [2, 3]),
                                    (750, [1, 2]))}
        cases = [(q, depth) for q in (zmod2, s3, cyclic[5], cyclic[6])
                 for depth in (1, 2, 3)] + [(cyclic[750], 3)]
        rng = np.random.default_rng(16)
        betas = [-1.0, 0.0, 1.5]
        for q, depth in cases:
            W = len(window_states(2, depth)[0])
            pot = Potential(2, depth, rng.uniform(-1, 1, W))
            zeta = Potential(2, depth, rng.uniform(-2.0, -0.5, W))
            got = restricted_pressure(pot, q)
            assert abs(got.value - full_pressure(pot).value) <= 1e-13
            assert got.detail["states"] == W
            assert [vars(p) for p in free_energy_curve(
                pot, zeta, betas, quotient=q).points] == \
                [vars(p) for p in free_energy_curve(pot, zeta, betas).points]

    def test_finite_index_forces_full_growth(self, zmod2, s3):
        # finite quotient: identity fiber grows like the whole shift
        for q in (zmod2, s3):
            res = restricted_pressure(Potential.constant(2, 0.0), q)
            assert res.value == pytest.approx(math.log(3), abs=1e-10)

    @pytest.mark.parametrize("name", ["s3", "z3", "fk3"])
    def test_rank_mismatch_raises(self, bundle, name):
        d, q, _ = bundle[name]
        with pytest.raises(ValidationError, match="rank mismatch"):
            restricted_pressure(Potential.constant(5 - d, 0.0), q)

    def test_unsupported_quotient_type_raises(self):
        class Other:
            d, identity = 2, 0

            def period(self):
                return 1

        with pytest.raises(ValidationError, match="unsupported quotient"):
            restricted_pressure(Potential.constant(2, 0.0), Other())
        with pytest.raises(ValidationError, match="unsupported quotient"):
            fiber_partition(Potential.constant(2, 0.0), Other(), 4)

    @pytest.mark.parametrize("name", ["zmod2", "s3", "z1", "z3"])
    def test_detail_keys(self, bundle, name):
        # the provenance each exact route reports, whichever engine runs
        d, q, _ = bundle[name]
        res = restricted_pressure(_random_pot(d, 2, seed=5), q)
        windows = len(window_states(d, 2)[0])
        if res.method == "exact-eigenvalue":
            # finite quotients solve on the full window pattern
            assert set(res.detail) == {"iterations", "states"}
            assert res.detail["iterations"] >= 1
            assert res.detail["states"] == windows
        else:
            assert set(res.detail) == {"theta", "eigen_solves", "states"}
            assert len(res.detail["theta"]) == q.rank
            assert res.detail["eigen_solves"] >= 1
            assert res.detail["states"] == windows

    @pytest.mark.parametrize("depth", [1, 2])
    def test_free_kill_route_rows_are_the_fits(self, fk3, depth):
        # the free-kill branch of scope_rows fits each row's identity-fiber
        # series: row by row the numbers of extrapolated_pressure, with no
        # slopes and no warm start
        W = len(window_states(3, depth)[0])
        tables = np.random.default_rng(depth).uniform(-1, 1, (3, W))
        evaluate, method, result = scope_rows(3, depth, fk3)
        rows = evaluate(tables)
        assert method == "extrapolated"
        assert rows.slopes is None and rows.start is None
        for k, table in enumerate(tables):
            want = extrapolated_pressure(Potential(3, depth, table), fk3)
            got = result(rows, k)
            assert rows.values[k] == got.value == want.value
            assert rows.residuals[k] == got.residual == want.residual
            assert (got.sigma, got.method, got.detail) == \
                (want.sigma, want.method, want.detail)
        # n_max and max_states reach the fits
        short = scope_rows(3, depth, fk3, n_max=30)
        assert short[2](short[0](tables[:1]), 0).detail["n_max"] == 30
        with pytest.raises(ResourceError):
            scope_rows(3, depth, fk3, max_states=1000)[0](tables)

    def test_restricted_never_exceeds_full(self, bundle):
        for name, (d, q, _) in bundle.items():
            pot = Potential.constant(d, 0.0)
            res = restricted_pressure(pot, q, n_max=25)
            assert res.value <= math.log(2 * d - 1) + 3 * res.sigma + 1e-9, \
                name


# F2 -> Z with b killed, and the asymmetric letters of the Z^1 reference:
# min over theta of P(f + theta <v, last letter>) = 1.0088228630 at
# theta* = 0.185
Z1_REF_LETTERS = [-0.7, -0.33, 0.03, 0.4]
Z1_REF = 1.0088228630


def _twisted_full(pot, letters, theta):
    """P(f + <theta, v(last letter)>) for a depth-1 f, from numpy's dense
    eigenvalues, for each row of theta."""
    twist = np.asarray(theta, float) @ np.asarray(letters, float).T
    vals = pot.values[None, :] + twist
    pattern = np.ones((len(pot.values),) * 2)
    for a in range(len(pot.values)):
        pattern[a, a ^ 1] = 0.0
    mats = pattern[None] * np.exp(vals)[:, None, :]
    return np.log(np.abs(np.linalg.eigvals(mats)).max(axis=1))


class TestTwistedPressure:
    def test_z1_reference(self, z1):
        res = restricted_pressure(
            Potential.from_letter_values(2, Z1_REF_LETTERS), z1)
        assert res.method == "exact-twisted" and res.sigma == 0.0
        assert res.value == pytest.approx(Z1_REF, abs=1e-9)
        assert res.residual <= 1e-12
        assert res.detail["theta"][0] == pytest.approx(0.185, abs=1e-6)
        # at least one Newton step: a solve before it and one after
        assert res.detail["eigen_solves"] >= 2

    def test_matches_theta_grid_minimum(self, z1):
        pot = Potential.from_letter_values(2, Z1_REF_LETTERS)
        letters = [z1.letter_image(a) for a in range(4)]
        grid = np.linspace(0.15, 0.22, 7001)[:, None]
        lowest = _twisted_full(pot, letters, grid).min()
        res = restricted_pressure(pot, z1)
        # the grid minimum lies above the true one, by at most the
        # curvature times the squared half spacing (~1e-11)
        assert lowest - 1e-9 <= res.value <= lowest + 1e-12

    def test_rank_deficient_image_is_a_minimum(self):
        # F3 -> Z^2 with g3 -> g1 + g2: theta ranges over all of R^2
        q = FreeAbelianQuotient(3, 2, [[1, 0], [0, 1], [1, 1]])
        pot = _random_pot(3, 1, seed=8)
        res = restricted_pressure(pot, q)
        theta = np.array(res.detail["theta"])
        assert np.abs(theta).max() > 0.05
        letters = [q.letter_image(a) for a in range(6)]
        h = 1e-3
        probes = theta + np.array([[0, 0], [h, 0], [-h, 0], [0, h],
                                   [0, -h], [h, h], [-h, -h]])
        vals = _twisted_full(pot, letters, probes)
        assert vals[0] == pytest.approx(res.value, abs=1e-12)
        assert (vals[1:] >= res.value - 1e-12).all()
        assert (vals[1:] - res.value).min() >= 1e-8   # strict minimum

    def test_symmetric_potential_takes_one_solve_and_no_step(self, z2):
        # theta* = 0 by symmetry: the full shift's own solve
        pot = random_inverse_symmetric(2, 4)
        res = restricted_pressure(pot, z2)
        full = full_pressure(pot)
        assert res.detail["theta"] == [0.0, 0.0]
        assert res.detail["eigen_solves"] == 1      # so no Newton step
        assert res.value == full.value
        assert res.residual == full.residual

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("d, vecs", [
        (2, [[1], [0]]), (2, [[1, 0], [0, 1]]),
        (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (2, [[2, 1], [0, 3]]),
        (2, [[1, 2], [2, 4]])])
    def test_symmetric_rows_reach_no_lapack(self, monkeypatch, d, vecs,
                                            depth):
        # neither the twist basis nor an inverse-symmetric row calls a
        # LAPACK routine, each of which pages native code into the process
        pot = _symmetric_pot(d, depth, seed=depth)
        assert pot.is_inverse_symmetric()
        q = FreeAbelianQuotient(d, len(vecs[0]), vecs)
        want = full_pressure(pot)
        _refuse_twist_lapack(monkeypatch)
        res = restricted_pressure(pot, q)
        assert res.method == "exact-twisted"
        assert (res.value, res.residual) == (want.value, want.residual)
        assert res.detail["theta"] == [0.0] * len(vecs[0])
        assert res.detail["eigen_solves"] == 1

    def test_symmetric_curve_reaches_no_lapack(self, z2, monkeypatch,
                                               psi_minus_one,
                                               two_ratio_zeta):
        # every row beta psi + t zeta is inverse-symmetric, so t_N = t
        want = free_energy_curve(psi_minus_one, two_ratio_zeta, [-1.0, 0.5])
        _refuse_twist_lapack(monkeypatch)
        curve = free_energy_curve(psi_minus_one, two_ratio_zeta,
                                  [-1.0, 0.5], quotient=z2)
        assert [p.t for p in curve.points] == [p.t for p in want.points]

    def test_zero_image_is_full_pressure(self):
        q = FreeAbelianQuotient(2, 1, [[0], [0]])
        pot = Potential.from_letter_values(2, Z1_REF_LETTERS)
        res = restricted_pressure(pot, q)
        assert res.value == pytest.approx(full_pressure(pot).value,
                                          abs=1e-12)
        assert res.detail["eigen_solves"] == 1

    @pytest.mark.parametrize("name, depth", [("z1", 1), ("z2", 2),
                                             ("z3", 1)])
    @pytest.mark.parametrize("shift", [-50.0, 3.7, 400.0])
    def test_shift_identity(self, bundle, name, depth, shift):
        d, q, _ = bundle[name]
        pot = _random_pot(d, depth, seed=21)
        moved = Potential(d, depth, pot.values + shift)
        a, b = restricted_pressure(pot, q), restricted_pressure(moved, q)
        assert b.value - a.value == pytest.approx(shift, abs=1e-10)

    def test_drifting_potential(self, z1):
        # f = 10 <v, last letter> + (0, 0, 0.3, -0.7): the twist cancels
        # the drift exactly, theta* = -10
        res = restricted_pressure(
            Potential.from_letter_values(2, [10, -10, 0.3, -0.7]), z1)
        assert res.detail["theta"][0] == pytest.approx(-10.0, abs=1e-8)
        want = restricted_pressure(
            Potential.from_letter_values(2, [0, 0, 0.3, -0.7]), z1)
        assert res.value == pytest.approx(want.value, abs=1e-12)

    def test_fit_approaches_exact_value_from_below(self, z1):
        pot = Potential.from_letter_values(2, Z1_REF_LETTERS)
        exact = restricted_pressure(pot, z1).value
        fits = [growth_rate(fiber_partition(pot, z1, n)).lam
                for n in (40, 80, 160)]
        assert fits[0] < fits[1] < fits[2] < exact
        assert exact - fits[2] <= 1e-3

    def test_uncertified_minimum_raises(self, z1, monkeypatch):
        monkeypatch.setattr(pressure_mod, "TWIST_MAX_ROUNDS", 2)
        with pytest.raises(NumericError, match="gradient certificate"):
            restricted_pressure(
                Potential.from_letter_values(2, [10, -10, 0.3, -0.7]), z1)


# asymmetric Z^2 letters, each twisted minimum with its eigen solves; the
# values are those of the central-difference Newton steps the exact Hessian
# replaced (which passed 2r + 1 = 5 rows per live row to pressure_rows)
Z2_TWIST_PINS = [
    ((1.0, -1.0, 0.0, 0.0), 1.0986122886681093, 2),
    ((-0.7, -0.33, 0.03, 0.4), 0.9820049537928104, 4),
    ((3.0, -3.0, 1.0, -2.0), 0.8642570098336584, 7),
]


class TestTwistBasis:
    @pytest.mark.parametrize("d, vecs, r", [
        (2, [[1], [0]], 1), (2, [[1, 0], [0, 1]], 2),
        (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), (2, [[2, 1], [0, 3]], 2),
        (2, [[1, 2], [2, 4]], 1), (2, [[0], [0]], 0)])
    def test_gram_schmidt_spans_the_letter_vectors(self, d, vecs, r):
        q = FreeAbelianQuotient(d, len(vecs[0]), vecs)
        windows = window_states(d, 2)[0]
        basis, G = twist_table(q, windows)
        assert basis.shape == (r, len(vecs[0]))
        assert np.abs(basis @ basis.T - np.eye(r)).max(initial=0.0) <= 1e-14
        # the projector onto the span, from the eigenvectors of the Gram
        # matrix with nonzero eigenvalue
        letters = np.array([q.letter_image(a) for a in range(2 * d)], float)
        sq, V = np.linalg.eigh(letters.T @ letters)
        V = V[:, sq > 1e-9 * max(sq.max(), 1.0)]
        assert np.abs(basis.T @ basis - V @ V.T).max() <= 1e-13
        # the coordinates of every window's last letter
        last = letters[[w[-1] for w in windows]]
        assert np.abs(G @ basis - last).max() <= 1e-13


class TestPressureHessian:
    @pytest.mark.parametrize("d, vecs, depth, seed", [
        (2, [[1, 0], [0, 1]], 2, 3),
        (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2, 7),
        (2, [[2, 1], [0, 3]], 3, 11)])
    def test_matches_central_differences_of_slopes(self, d, vecs, depth,
                                                   seed):
        windows = window_states(d, depth)[0]
        values = np.random.default_rng(seed).uniform(-1, 1, len(windows))
        pattern = transfer_pattern(d, depth)
        G = twist_table(FreeAbelianQuotient(d, len(vecs[0]), vecs),
                        windows)[1]
        H = pressure_rows(pattern, values[None], G, hessian=True).hessian[0]
        h = 1e-4
        fd = np.column_stack([
            (pressure_rows(pattern, (values + h * G[:, i])[None], G).slopes
             - pressure_rows(pattern, (values - h * G[:, i])[None],
                             G).slopes)[0] / (2 * h)
            for i in range(G.shape[1])])
        assert np.array_equal(H, H.T)
        assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()

    def test_blocked_rows_match_single_rows(self, z3):
        # at W = 150 the W x W solves go in blocks of 46 rows
        windows = window_states(3, 3)[0]
        values = np.random.default_rng(4).uniform(-1, 1, (50, len(windows)))
        pattern = transfer_pattern(3, 3)
        G = twist_table(z3, windows)[1]
        H = pressure_rows(pattern, values, G, hessian=True).hessian
        for k in (0, 45, 46, 49):
            one = pressure_rows(pattern, values[k:k + 1], G,
                                hessian=True).hessian[0]
            assert np.abs(H[k] - one).max() <= 1e-9 * np.abs(one).max()

    def test_no_hessian_unless_asked(self):
        pattern = transfer_pattern(2, 1)
        rows = pressure_rows(pattern, np.zeros((1, 4)), np.eye(4))
        assert rows.hessian is None

    @pytest.mark.parametrize("letters, want, solves", Z2_TWIST_PINS)
    def test_twist_solves_only_the_live_rows(self, z2, monkeypatch,
                                             letters, want, solves):
        calls = []

        def spy(pattern, values, *args, **kwargs):
            calls.append(len(values))
            return pressure_rows(pattern, values, *args, **kwargs)
        monkeypatch.setattr(pressure_mod, "pressure_rows", spy)
        res = restricted_pressure(Potential.from_letter_values(2, letters),
                                  z2)
        assert calls == [1] * solves
        assert res.detail["eigen_solves"] == solves
        assert abs(res.value - want) <= 1e-14

    def test_batched_twist_drops_finished_rows(self, z2, monkeypatch):
        calls = []

        def spy(pattern, values, *args, **kwargs):
            calls.append(len(values))
            return pressure_rows(pattern, values, *args, **kwargs)
        monkeypatch.setattr(pressure_mod, "pressure_rows", spy)
        G = twist_table(z2, window_states(2, 1)[0])[1]
        values = np.array([pin[0] for pin in Z2_TWIST_PINS])
        rows = twisted_rows(transfer_pattern(2, 1), G, _inverse(2, 1),
                            values)
        # the rows finish after 2, 4 and 7 rounds
        assert calls == [3, 3, 2, 2, 1, 1, 1] and rows.solves == 7
        assert np.abs(rows.values
                      - [pin[1] for pin in Z2_TWIST_PINS]).max() <= 1e-14

    @pytest.mark.parametrize("with_g", [False, True])
    def test_mixed_batch_splits_symmetric_rows(self, z2, monkeypatch,
                                               with_g):
        # a symmetric row takes one solve at phi = 0 before the pins'
        # Newton rounds, which run as they do alone
        calls = []

        def spy(pattern, values, *args, **kwargs):
            calls.append(len(values))
            return pressure_rows(pattern, values, *args, **kwargs)
        monkeypatch.setattr(pressure_mod, "pressure_rows", spy)
        pattern = transfer_pattern(2, 1)
        G = twist_table(z2, window_states(2, 1)[0])[1]
        symmetric = np.array([0.4, 0.4, -0.3, -0.3])
        values = np.array([pin[0] for pin in Z2_TWIST_PINS[:2]]
                          + [symmetric, Z2_TWIST_PINS[2][0]])
        g = np.array([0.5, -1.0, 2.0, 0.25]) if with_g else None
        rows = twisted_rows(pattern, G, _inverse(2, 1), values, g)
        assert calls == [1, 3, 3, 2, 2, 1, 1, 1] and rows.solves == 8
        pins = [0, 1, 3]
        assert np.abs(rows.values[pins]
                      - [pin[1] for pin in Z2_TWIST_PINS]).max() <= 1e-14
        alone = pressure_rows(pattern, symmetric[None], g)
        assert rows.values[2] == alone.values[0]
        assert rows.residuals[2] == alone.residuals[0]
        assert (rows.start[2][2] == 0).all()
        assert np.linalg.norm(rows.start[2][pins], axis=1).min() > 0.1
        assert (rows.start[1][2] == alone.start[1][0]).all()
        if with_g:
            assert rows.slopes[2] == alone.slopes[0]


def _grigorchuk(d, survivors, c):
    """lambda_N = c + log alpha for constant f = c on F_d modulo the killed
    generators, k = survivors of them left: Grigorchuk's cogrowth formula
    with rho = (d - k + sqrt(2k - 1)) / d the image walk's spectral radius
    and alpha > sqrt(2d - 1) the root of rho = (m / 2d)(m / alpha +
    alpha / m), m = sqrt(2d - 1)."""
    rho = (d - survivors + math.sqrt(2 * survivors - 1)) / d
    return c + math.log(d * rho + math.sqrt((d * rho) ** 2 - (2 * d - 1)))


class TestFreeKillOracle:
    """oracles.freekill_pressure, the weighted cogrowth route, against
    closed forms, the library's exact Z^1 twist and the pinned values of
    the fold of the renewal system (ROADMAP item 1)."""

    def test_fk3_closed_form(self):
        assert _grigorchuk(3, 2, 0.0) == pytest.approx(1.45903273179147012,
                                                       abs=1e-15)

    @pytest.mark.parametrize("d, killed, c", [
        (2, {1}, 0.0), (3, {2}, 0.7), (3, {1, 2}, -1.3), (4, {3}, 0.0),
        (4, {2, 3}, 2.5), (5, {4}, -0.4)])
    def test_constant_potential_matches_grigorchuk(self, d, killed, c):
        got = oracles.freekill_pressure([c] * (2 * d), killed)
        assert abs(got - _grigorchuk(d, d - len(killed), c)) <= 1e-12

    def test_matches_library_z1_twist(self, z1):
        # F2 with g2 killed is Z, the image of z1: two independent routes
        got = oracles.freekill_pressure(Z1_REF_LETTERS, {1})
        lib = restricted_pressure(
            Potential.from_letter_values(2, Z1_REF_LETTERS), z1)
        assert abs(lib.value - 1.0088228629574045) <= 1e-14
        assert abs(got - lib.value) <= 1e-12

    @pytest.mark.parametrize("letters, want", [
        ((0.3, -0.2, 0.1, 0.4, -0.5, 0.2), 1.5306151481479988),
        ((0, 0, 0, 0, 2, 2), 2.5202532621987452),
        ((0, 0, 0, 0, 6, 6), 6.016839502462774)])
    def test_fk3_pins(self, letters, want):
        assert abs(oracles.freekill_pressure(letters, {2}) - want) <= 1e-12

    @pytest.mark.parametrize("letters", [
        (10, 10, -10, -10, 0, 0), (10, -10, 10, -10, 10, -10)])
    def test_refuses_ill_conditioned_weights(self, letters):
        with pytest.raises(ValueError, match="ill-conditioned"):
            oracles.freekill_pressure(letters, {2})

    # the third case needs the least-solution test: without it the
    # bisection stops at a spurious root, 0.65 against 1.3470
    @pytest.mark.parametrize("killed, letters", [
        ({2}, [-1.0] * 6),
        ({2}, list(np.random.default_rng(1).uniform(-1, 1, 6))),
        ({1}, [1.4, -0.1, -2.3, -2.8, -0.9, 2.0])])
    def test_growth_fit_within_three_sigma(self, killed, letters):
        fit = restricted_pressure(Potential.from_letter_values(3, letters),
                                  FreeKillQuotient(3, killed))
        assert fit.method == "extrapolated"
        exact = oracles.freekill_pressure(letters, killed)
        assert abs(fit.value - exact) <= 3 * fit.sigma
