import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from freeshift import (GeometricPotential, Potential, ValidationError,
                       boundary_completion, combine, load_potential_csv,
                       random_inverse_symmetric, window_states)


def _random_table(d, depth, rng):
    windows, _ = window_states(d, depth)
    return Potential(d, depth, rng.uniform(-1, 1, size=len(windows)))


def _sup_sum(pot, word):
    """The library's sup-sum of a word: its interior windows plus
    boundary_completion, as the fiber readout composes them."""
    k = pot.depth
    return (sum(pot.value(word[i:i + k]) for i in range(len(word) - k + 1))
            + boundary_completion(pot, word))


class TestConstruction:
    def test_constant_and_letter_values(self):
        p = Potential.constant(2, -1.5)
        assert p.depth == 1 and p.value((3,)) == -1.5
        q = Potential.from_letter_values(2, [1, 2, 3, 4])
        assert q.value((0,)) == 1 and q.value((3,)) == 4

    def test_from_table_requires_every_window(self):
        with pytest.raises(ValidationError, match="incomplete"):
            Potential.from_table(2, 1, {(0,): 1.0})
        with pytest.raises(ValidationError, match="admissible"):
            Potential.from_table(2, 2, {(0, 1): 1.0})

    def test_refusals(self):
        for make, match in [
                (lambda: Potential(1, 1, [0.0] * 2), "free rank must be >= 2"),
                (lambda: Potential(2, 0, [0.0] * 4), "depth must be >= 1"),
                (lambda: Potential(2, 1, [0.0] * 3), r"has \(3,\) entries"),
                (lambda: Potential.from_letter_values(2, [1, 2, 3]),
                 "need 4 per-letter values"),
                (lambda: Potential.constant(2, 0.0).value((0, 1)),
                 r"\(0, 1\) is not an admissible 1-window"),
                (lambda: GeometricPotential.from_ratios(2, [0.5] * 3),
                 "need 4 contraction ratios"),
                (lambda: combine(), "at least one term")]:
            with pytest.raises(ValidationError, match=match):
                make()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Potential.from_letter_values(2, [0, 0, 0, math.inf])

    def test_geometric_requires_negative(self):
        with pytest.raises(ValidationError):
            GeometricPotential.from_letter_values(2, [-1, -1, 0.5, -1])
        g = GeometricPotential.from_ratios(2, [0.5, 0.5, 0.25, 0.25])
        assert math.exp(g.max) == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            GeometricPotential.from_ratios(2, [0.5, 0.5, 1.5, 0.5])

    def test_as_depth_preserves_sup_sums(self):
        rng = np.random.default_rng(3)
        p = _random_table(2, 1, rng)
        lifted = p.as_depth(3)
        for w in oracles.brute_words(2, 5):
            assert oracles.birkhoff_sup_sum(lifted, w) == \
                pytest.approx(oracles.birkhoff_sup_sum(p, w), abs=1e-12)
        with pytest.raises(ValidationError):
            lifted.as_depth(2)

    def test_scalar_multiply(self):
        p = Potential.from_letter_values(2, [1, 2, 3, 4])
        assert (2 * p).value((1,)) == 4.0
        assert (p * -1).value((2,)) == -3.0


class TestSupSum:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_matches_completion_oracle(self, depth):
        rng = np.random.default_rng(depth)
        for d, n_max in ((2, 5), (3, 4)):
            p = _random_table(d, depth, rng)
            table = {w: p.value(w) for w in window_states(d, depth)[0]}
            for n in range(1, n_max + 1):
                for w in oracles.brute_words(d, n):
                    want = oracles.brute_sup_sum(d, depth, table, w)
                    assert _sup_sum(p, w) == pytest.approx(
                        want, abs=1e-10), (d, w)

    def test_depth1_is_plain_sum(self):
        p = Potential.from_letter_values(2, [0.1, 0.2, 0.3, 0.4])
        assert _sup_sum(p, (0, 2, 0)) == pytest.approx(0.5)
        assert _sup_sum(p, ()) == 0.0

    def test_boundary_completion_is_the_sup_gap(self):
        rng = np.random.default_rng(9)
        p = _random_table(2, 2, rng)
        for w in oracles.brute_words(2, 4):
            interior = sum(p.value(w[i:i + 2]) for i in range(3))
            assert oracles.birkhoff_sup_sum(p, w) == pytest.approx(
                interior + boundary_completion(p, w[-1:]), abs=1e-12)

    def test_distortion_bounds_completion_spread(self):
        rng = np.random.default_rng(11)
        p = _random_table(2, 3, rng)
        bound = oracles.distortion_constant(p)
        # every single-completion sum sits within the bound of the sup
        for w in oracles.brute_words(2, 5):
            sup = oracles.birkhoff_sup_sum(p, w)
            interior = sum(p.value(w[i:i + 3]) for i in range(len(w) - 2))
            assert sup - interior <= bound + 1e-12


class TestSymmetry:
    def test_detects_symmetry(self):
        assert Potential.from_letter_values(2, [1, 1, 2, 2]) \
            .is_inverse_symmetric()
        assert not Potential.from_letter_values(2, [1, 2, 1, 2]) \
            .is_inverse_symmetric()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_symmetric_generator(self, seed):
        p = random_inverse_symmetric(2, seed)
        assert p.is_inverse_symmetric()
        assert -1.0 <= p.values.min() <= p.max <= 1.0
        again = random_inverse_symmetric(2, np.int64(seed))
        assert np.array_equal(again.values, p.values)

    @pytest.mark.parametrize("seed", [-3, 1.5, "3"])
    def test_random_symmetric_refuses_bad_seed(self, seed):
        # Random(-3) would silently equal Random(3)
        with pytest.raises(ValidationError, match="non-negative integer"):
            random_inverse_symmetric(2, seed)

    def test_depth2_symmetry_uses_reversal(self):
        # f(ab) != f(ba) alone must not break symmetry when f(w) = f(w^-1)
        windows, _ = window_states(2, 2)
        rng = np.random.default_rng(5)
        vals = {}
        for w in windows:
            rev = tuple(l ^ 1 for l in reversed(w))
            if rev in vals:
                vals[w] = vals[rev]
            else:
                vals[w] = rng.uniform(-1, 1)
        p = Potential.from_table(2, 2, vals)
        assert p.is_inverse_symmetric()


class TestCombine:
    def test_linear_combination(self):
        a = Potential.from_letter_values(2, [1, 2, 3, 4])
        b = Potential.constant(2, 10.0, depth=2)
        c = combine((2.0, a), (1.0, b))
        assert c.depth == 2
        assert c.value((0, 2)) == pytest.approx(2 * 1 + 10)

    def test_mismatched_alphabets(self):
        with pytest.raises(ValidationError):
            combine((1.0, Potential.constant(2, 0)),
                    (1.0, Potential.constant(3, 0)))


class TestCsv:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_round_trip_is_exact(self, tmp_path, depth):
        rng = np.random.default_rng(depth + 20)
        p = _random_table(2, depth, rng)
        path = tmp_path / "pot.csv"
        oracles.save_potential_csv(p, str(path))
        q = load_potential_csv(2, str(path))
        assert q.depth == p.depth
        assert np.array_equal(q.values, p.values)  # repr round trip

    def test_geometric_load_enforces_sign(self, tmp_path):
        p = Potential.from_letter_values(2, [0.5, -1, -1, -1])
        path = tmp_path / "pot.csv"
        oracles.save_potential_csv(p, str(path))
        with pytest.raises(ValidationError):
            load_potential_csv(2, str(path), geometric=True)

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w1,value\n0,1.0\n0,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_potential_csv(2, str(path))
        path.write_text("w1\n0\n")
        with pytest.raises(ValidationError, match="header"):
            load_potential_csv(2, str(path))
        for text, match in [("", "empty potential file"),
                            ("w1,value\n0,1.0,2.0\n", r":2: expected 2 "
                                                      "columns"),
                            ("w1,value\n0,1.0\n1,x\n", r":3: could not "
                                                      "convert")]:
            path.write_text(text)
            with pytest.raises(ValidationError, match=match):
                load_potential_csv(2, str(path))

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("w1,value\n\n0,1\n1,2\n\n2,3\n3,4\n")
        assert load_potential_csv(2, str(path)).values.tolist() == \
            [1.0, 2.0, 3.0, 4.0]
