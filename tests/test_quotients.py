import time

import numpy as np
import pytest

import oracles
import freeshift.quotients as quotients_mod
from freeshift import (FiniteQuotient, FreeAbelianQuotient, FreeKillQuotient,
                       Quotient, ResourceError, ValidationError)
from freeshift.quotients import letter_shifts
from freeshift.words import is_reduced


class TestAgainstOracleOps:
    def test_word_images_match(self, bundle):
        for name, (d, q, (ident, img, mul)) in bundle.items():
            assert q.identity == ident, name
            for n in range(0, 5):
                for w in oracles.brute_words(d, n):
                    expect = oracles.eval_word(w, ident, img, mul)
                    assert q.eval_word(w) == expect, (name, w)

    def test_inverses(self, bundle):
        for name, (d, q, (ident, img, mul)) in bundle.items():
            for w in oracles.brute_words(d, 3):
                g = q.eval_word(w)
                assert q.multiply(g, q.invert(g)) == ident, (name, w)

    def test_ball_matches_oracle(self, bundle):
        for name, (d, q, (ident, img, mul)) in bundle.items():
            for radius in (0, 1, 3):
                got = set(q.ball(radius))
                want = oracles.brute_ball(radius, ident, img, mul,
                                          range(2 * d))
                assert got == want, (name, radius)

    def test_word_length_matches_oracle_balls(self, bundle):
        # the word length of g is the first radius whose ball holds it
        for name, (d, q, (ident, img, mul)) in bundle.items():
            balls = [oracles.brute_ball(r, ident, img, mul, range(2 * d))
                     for r in range(4)]
            for r in range(1, 4):
                for g in balls[r] - balls[r - 1]:
                    assert q.word_length([g], 3) == r, (name, g)
                    assert q.word_length([ident, g], 3) == r, (name, g)
            assert q.word_length([ident], 0) == 0, name

    def test_ball_refuses_negative_radius(self, z2):
        with pytest.raises(ValidationError, match="radius must be >= 0"):
            z2.ball(-1)

    def test_word_length_refuses_far_elements(self, z2):
        with pytest.raises(ValidationError, match="within 4 letters"):
            z2.word_length([(0, 0), (2, -3)], 4)
        with pytest.raises(ValidationError, match="within 6 letters"):
            z2.word_length([(1,)], 6)        # not an element of Z^2


class TestPeriod:
    def test_matches_brute_search(self, bundle, finite_cases):
        cases = {**bundle, **finite_cases}
        for name, (d, q, (ident, img, mul)) in cases.items():
            want, lengths = oracles.brute_period(d, 8, ident, img, mul)
            got = q.period()
            assert got == want, (name, got, lengths)

    def test_finite_period_needs_no_search_bound(self, s3, z2, fk3):
        # every quotient type computes its period exactly: period() takes
        # no search bound and returns the integer
        for q in (s3, z2, fk3):
            with pytest.raises(TypeError):
                q.period(n_search=1)
            assert type(q.period()) is int

    @pytest.mark.parametrize("vectors, want", [
        ([[2], [2]], 2),
        ([[1], [3]], 2),
        ([[2], [1]], 1),
        ([[0, 0], [0, 0]], 1),
    ])
    def test_lattice_period_matches_witness_search(self, vectors, want):
        q = FreeAbelianQuotient(2, len(vectors[0]), vectors)
        brute, lengths = oracles.brute_period(2, 8, q.identity,
                                              q.letter_image, q.multiply)
        assert brute == want, lengths
        assert q.period() == want

    def test_lattice_period_beyond_any_short_witness(self):
        # the shortest odd N-word here has length 29, far past a bounded
        # search; the lattice route still finds period 1, and fast
        vectors = [[-2, -3], [3, -2], [1, -3]]
        a, b, c_inv = 0, 2, 5
        word = (a,) * 7 + (b,) * 9 + (c_inv,) * 13
        q = FreeAbelianQuotient(3, 2, vectors)
        assert q.eval_word(word) == q.identity
        assert is_reduced(word) and word[0] != word[-1] ^ 1
        assert len(word) % 2 == 1
        assert q.period() == 1
        seconds = []
        for _ in range(3):
            fresh = FreeAbelianQuotient(3, 2, vectors)
            start = time.perf_counter()
            fresh.period()
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.01

    def test_known_values(self, bundle):
        # sanity anchors: a killed generator gives a 1-loop; parity lattices
        # give period 2
        assert bundle["fk3"][1].period() == 1
        assert bundle["z1"][1].period() == 1  # b maps to 0
        assert bundle["z2"][1].period() == 2
        assert bundle["z3"][1].period() == 2
        assert bundle["zmod2"][1].period() == 2
        assert bundle["s3"][1].period() == 1


class TestBallTable:
    def test_built_once_per_key(self, z2):
        first = z2.ball_table(5)
        assert z2.ball_table(5) is first
        assert z2.ball_table(6) is not first

    def test_matches_ball_and_letter_images(self, bundle):
        for name, (d, q, _) in bundle.items():
            elements, eindex, shifts = q.ball_table(3)
            assert list(elements) == q.ball(3), name
            assert all(elements[i] == e for e, i in eindex.items()), name
            for l in range(2 * d):
                for i, e in enumerate(elements):
                    h = q.multiply(e, q.letter_image(l))
                    assert shifts[l, i] == eindex.get(h, -1), (name, l, e)

    def test_shifts_are_read_only(self, z2):
        shifts = z2.ball_table(4)[2]
        assert not shifts.flags.writeable
        with pytest.raises(ValueError):
            shifts[0, 0] = 0


LATTICES = [(2, [[1], [0]]), (2, [[1, 0], [0, 1]]),
            (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            (3, [[1, 0], [0, 1], [1, 1]]), (2, [[2, 1], [0, 3]])]


class TestLatticeBall:
    """The int64-code level sets of FreeAbelianQuotient against the
    generic breadth-first search over tuples."""

    @pytest.mark.parametrize("d, vectors", LATTICES,
                             ids=[str(v) for _, v in LATTICES])
    def test_matches_generic_bfs(self, d, vectors):
        q = FreeAbelianQuotient(d, len(vectors[0]), vectors)
        for radius in range(13):
            got = q.ball(radius)
            want = Quotient._ball(q, radius, 5_000_000)
            assert got == want, radius
            elements, eindex, shifts = q.ball_table(radius)
            assert np.array_equal(shifts, letter_shifts(q, elements))
            assert all(elements[i] == e for e, i in eindex.items())

    def test_budget_matches_generic_bfs(self, z2):
        with pytest.raises(ResourceError) as got:
            z2.ball(12, max_elements=100)
        with pytest.raises(ResourceError) as want:
            Quotient._ball(z2, 12, 100)
        assert got.value.required == want.value.required
        assert got.value.budget == want.value.budget == 100

    def test_codes_that_would_overflow_use_the_generic_bfs(self):
        big = 10 ** 7
        q = FreeAbelianQuotient(3, 3, [[big, 0, 0], [0, big, 0], [0, 0, 1]])
        assert q._codec(2) is None
        assert q.ball(2) == Quotient._ball(q, 2, 5_000_000)
        elements = q.ball_table(2)[0]
        assert np.array_equal(q.ball_table(2)[2],
                              letter_shifts(q, elements))


class TestFirstReturns:
    def test_matches_exhaustive_enumeration(self, bundle):
        for name, (d, q, (ident, img, mul)) in bundle.items():
            depth = 6 if d == 2 else 5
            want = sorted(oracles.brute_first_returns(d, depth, ident, img,
                                                      mul),
                          key=lambda w: (len(w), w))
            assert q.first_return_words(depth) == want, name

    def test_node_budget(self, z2, monkeypatch):
        monkeypatch.setattr(quotients_mod, "FIRST_RETURN_MAX_NODES", 10)
        with pytest.raises(ResourceError):
            z2.first_return_words(8)

    def test_returns_factor_words(self, z2):
        # every N-word of length 6 splits at its N-prefixes into first
        # returns; verify the split pieces are in the first-return list
        returns = set(z2.first_return_words(6))
        for w in oracles.brute_words(2, 6):
            if z2.eval_word(w) != z2.identity:
                continue
            pieces, start = [], 0
            for i in range(1, len(w) + 1):
                if z2.eval_word(w[:i]) == z2.identity:
                    pieces.append(w[start:i])
                    start = i
            assert all(p in returns for p in pieces), w


class TestFiniteValidation:
    def test_rejects_non_group_table(self):
        # row 1 repeats an entry: not a Latin square
        with pytest.raises(ValidationError):
            FiniteQuotient(2, [[0, 1], [1, 1]], 0, [1, 1])

    def test_rejects_non_associative_table(self):
        # Latin square with two-sided identity 0 but (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValidationError):
            FiniteQuotient(2, table, 0, [1, 2])

    def test_rejects_non_generating_images(self):
        table, ident, (swap, cycle) = _s3()
        for images, reached in (([ident, ident], 1), ([swap, swap], 2),
                                ([cycle, ident], 3)):
            with pytest.raises(ValidationError, match=f"generate only "
                               f"{reached} of 6 elements"):
                FiniteQuotient(2, table, ident, images)

    def test_rejects_bad_identity(self):
        with pytest.raises(ValidationError):
            FiniteQuotient(2, [[0, 1], [1, 0]], 1, [1, 1])

    @pytest.mark.parametrize("table, identity, images, match", [
        ([[0, 1]], 0, [1, 1], "must be square"),
        (np.zeros((0, 0), dtype=int), 0, [0, 0], "empty"),
        ([[0, 2], [2, 0]], 0, [1, 1], "entries out of range"),
        ([[0, 1], [1, 0]], 2, [1, 1], "identity index 2 out of range"),
        # rows are permutations, column 1 is not
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0, [1, 2],
         "some column is not a permutation"),
        ([[0, 1], [1, 0]], 0, [1], "need 2 generator images, got 1"),
        ([[0, 1], [1, 0]], 0, [1, 2], "generator image 2 out of range"),
        # a loop: 2 * 3 = 0 but 3 * 2 = 1
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
          [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], 0, [1, 2],
         "right inverse is not a left inverse")],
        ids=["not-square", "empty", "entry-range", "identity-range",
             "column", "image-count", "image-range", "one-sided-inverse"])
    def test_refusals(self, table, identity, images, match):
        with pytest.raises(ValidationError, match=match):
            FiniteQuotient(2, table, identity, images)

    def test_order_cap(self, monkeypatch):
        table, ident, images = _s3()
        monkeypatch.setattr(quotients_mod, "MAX_FINITE_ORDER", 5)
        with pytest.raises(ValidationError,
                           match="order 6 exceeds supported cap 5"):
            FiniteQuotient(2, table, ident, images)

    def test_from_file_round_trip(self, tmp_path, s3):
        table, ident, images = _s3()
        path = tmp_path / "s3.table"
        lines = [f"{len(table)} {ident}"]
        lines += [" ".join(map(str, row)) for row in table]
        path.write_text("# S3\n" + "\n".join(lines) + "\n")
        q = FiniteQuotient.from_file(2, str(path), images)
        for w in oracles.brute_words(2, 4):
            assert q.eval_word(w) == s3.eval_word(w)

    def test_from_file_malformed(self, tmp_path):
        bad = tmp_path / "bad.table"
        bad.write_text("2 0\n0 1\n")
        with pytest.raises(ValidationError):
            FiniteQuotient.from_file(2, str(bad), [1, 1])
        for text, match in [("# nothing\n\n", "empty table file"),
                            ("2 e\n0 1\n1 0\n", "bad header"),
                            ("2 0 1\n0 1\n1 0\n", "header must be"),
                            ("2 0\n0 1\n1 x\n", "bad table entry"),
                            ("2 0\n0 1 1\n1 0\n",
                             "row 0 has 3 entries, expected 2")]:
            bad.write_text(text)
            with pytest.raises(ValidationError, match=match):
                FiniteQuotient.from_file(2, str(bad), [1, 1])


def _s3():
    swap, cycle = (1, 0, 2), (1, 2, 0)
    elems, table, ident, index = oracles.perm_group_table([swap, cycle])
    return table, ident, [index[swap], index[cycle]]


class TestAbelianAndKill:
    def test_abelian_vector_validation(self):
        with pytest.raises(ValidationError):
            FreeAbelianQuotient(2, 2, [[1, 0]])
        with pytest.raises(ValidationError):
            FreeAbelianQuotient(2, 2, [[1, 0], [0]])
        with pytest.raises(ValidationError):
            FreeAbelianQuotient(2, 0, [[], []])

    def test_kill_validation(self):
        with pytest.raises(ValidationError):
            FreeKillQuotient(2, set())
        with pytest.raises(ValidationError):
            FreeKillQuotient(2, {5})

    def test_kill_images(self, fk3):
        assert fk3.letter_image(4) == ()
        assert fk3.letter_image(5) == ()
        assert fk3.eval_word((0, 4, 1)) == ()       # g1 g3 g1^-1
        assert fk3.eval_word((0, 4, 2)) == (0, 2)   # g1 g3 g2

    def test_descriptions_name_the_generators(self, bundle):
        for name, (d, q, _) in bundle.items():
            assert isinstance(q.describe(), str) and q.describe()
