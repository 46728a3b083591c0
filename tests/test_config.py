import hashlib
import math
import re

import numpy as np
import pytest

import oracles
from freeshift import (FiniteQuotient, FreeAbelianQuotient, FreeKillQuotient,
                       GeometricPotential, ValidationError, default_beta_grid,
                       delta, load_config)
from freeshift import diagnostics, pressure, spectra
from freeshift.config import parse_number

MINIMAL = """\
[model]
d = 2

[zeta]
ratios = 0.25
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestMinimal:
    def test_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.d == 2
        assert cfg.quotient is None
        assert cfg.psi.values.max() == 0.0 == cfg.psi.values.min()
        assert isinstance(cfg.zeta, GeometricPotential)
        assert cfg.zeta.value((0,)) == pytest.approx(math.log(0.25))
        assert cfg.betas[0] == -4.0 and cfg.betas[-1] == 4.0
        assert len(cfg.betas) == 161
        assert cfg.alpha_count == 161
        assert cfg.n_max == 40 and cfg.gibbs_len == 8
        assert cfg.tol_eigen == 1e-13 and cfg.tol_bisection == 1e-10
        assert cfg.seed == 0
        assert cfg.describe_quotient() == "none"

    def test_defaults_are_the_library_defaults(self, tmp_path):
        # one constant per default: the config reads the library's own
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.sigma_factor is diagnostics.SIGMA_FACTOR
        assert cfg.tol_bisection is spectra.DEFAULT_U_TOL
        assert cfg.max_states is pressure.FIBER_MAX_STATES

    def test_hash_is_of_raw_bytes(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        cfg = load_config(path)
        want = hashlib.sha256(MINIMAL.encode()).hexdigest()
        assert cfg.config_hash == want
        # any byte change, even a comment, changes the hash
        cfg2 = load_config(_write(tmp_path, MINIMAL + "# note\n", "b.ini"))
        assert cfg2.config_hash != want

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))


class TestValidation:
    def test_unknown_section_and_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown config section"):
            load_config(_write(tmp_path, MINIMAL + "[extra]\nx = 1\n"))
        with pytest.raises(ValidationError, match="unknown key"):
            load_config(_write(tmp_path,
                               "[model]\nd = 2\nrank = 3\n\n"
                               "[zeta]\nratios = 0.25\n"))

    def test_required_fields(self, tmp_path):
        with pytest.raises(ValidationError, match=r"\[zeta\]"):
            load_config(_write(tmp_path, "[model]\nd = 2\n"))
        with pytest.raises(ValidationError, match="model"):
            load_config(_write(tmp_path, "[zeta]\nratios = 0.25\n"))

    def test_zeta_exactly_one_source(self, tmp_path):
        text = "[model]\nd = 2\n\n[zeta]\nratios = 0.25\nconstant = -1\n"
        with pytest.raises(ValidationError, match="exactly one"):
            load_config(_write(tmp_path, text))

    def test_zeta_constant_sign(self, tmp_path):
        text = "[model]\nd = 2\n\n[zeta]\nconstant = 0.5\n"
        with pytest.raises(ValidationError, match="< 0"):
            load_config(_write(tmp_path, text))

    def test_bad_grid(self, tmp_path):
        text = MINIMAL + "[grid]\nbeta_min = 2\nbeta_max = -2\n"
        with pytest.raises(ValidationError, match="beta"):
            load_config(_write(tmp_path, text))

    def test_negative_seed(self, tmp_path):
        text = MINIMAL.replace("d = 2", "d = 2\nseed = -3")
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            load_config(_write(tmp_path, text))

    def test_bad_budget(self, tmp_path):
        text = MINIMAL + "[budgets]\nn_max = 0\n"
        with pytest.raises(ValidationError, match="n_max"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("text, match", [
        (MINIMAL.replace("0.25", "0.25, x"), "bad numeric list"),
        (MINIMAL + "[quotient]\ntype = freekill\nkilled = 1.5\n",
         "expected integers"),
        (MINIMAL + "[psi]\nconstant = 1\nletters = 1, 2\n",
         "exactly one of constant/letters/file"),
        (MINIMAL + "[quotient]\ntype = finite\nfile = g.table\n",
         r"type=finite needs file= \(table\) and images="),
        (MINIMAL + "[quotient]\ntype = abelian\nrank = 2\n",
         "type=abelian needs rank= and vectors="),
        (MINIMAL + "[quotient]\ntype = freekill\n",
         "type=freekill needs killed="),
        ("d = 2\n" + MINIMAL, "config parse error"),
        (MINIMAL.replace("d = 2", "d = 1"), "d must be >= 2"),
        (MINIMAL + "[grid]\nalpha_count = 0\n", "alpha_count must be >= 1"),
        (MINIMAL + "[tolerances]\neigen = -1e-13\n",
         "tolerances must be positive"),
        (MINIMAL + "[tolerances]\nsigma_factor = 0\n",
         "tolerances must be positive")],
        ids=["float-list", "int-list", "psi-two-sources", "finite-no-images",
             "abelian-no-vectors", "freekill-no-killed", "parse-error",
             "rank-1", "alpha-count-0", "eigen-negative", "sigma-factor-0"])
    def test_refusals(self, tmp_path, text, match):
        with pytest.raises(ValidationError, match=match):
            load_config(_write(tmp_path, text))


class TestNonFinite:
    """Numbers from outside must be finite: nan and inf are refused where
    they are parsed, and so is a grid whose point count is not finite."""

    @pytest.mark.parametrize("text, where", [
        ("inf", "--tolerance"), ("nan", "--tolerance"),
        ("inf", "--beta-range"), ("-inf", "[grid] beta_min"),
        ("NaN", "[zeta] constant"), ("Infinity", "[grid] beta_step"),
        ("1e400", "[tolerances] bisection")],
        ids=["tolerance-inf", "tolerance-nan", "beta-range-inf",
             "beta-min-neg-inf", "zeta-nan", "beta-step-infinity",
             "bisection-overflow"])
    def test_parse_number_refuses(self, text, where):
        with pytest.raises(ValidationError,
                           match=f"{re.escape(where)} expects a finite"):
            parse_number(text, float, where)

    def test_eigen_tolerance_nan(self, tmp_path):
        text = MINIMAL + "[tolerances]\neigen = nan\n"
        with pytest.raises(ValidationError,
                           match=r"\[tolerances\] eigen expects a finite"):
            load_config(_write(tmp_path, text))

    def test_grid_with_unbounded_count(self, tmp_path):
        # (hi - lo) / step overflows to inf: no grid, and no OverflowError
        with pytest.raises(ValidationError, match="finite count"):
            default_beta_grid(0.0, math.inf, 1.0)
        with pytest.raises(ValidationError, match="finite count"):
            default_beta_grid(0.0, 1.0, 1e-320)
        text = MINIMAL + "[grid]\nbeta_min = -1e308\nbeta_max = 1e308\n"
        with pytest.raises(ValidationError, match="finite count"):
            load_config(_write(tmp_path, text))


class TestPotentialForms:
    def test_ratio_broadcast_forms(self, tmp_path):
        one = load_config(_write(tmp_path, MINIMAL, "a.ini"))
        per_gen = load_config(_write(
            tmp_path, "[model]\nd = 2\n\n[zeta]\nratios = 0.25, 0.25\n",
            "b.ini"))
        full = load_config(_write(
            tmp_path,
            "[model]\nd = 2\n\n[zeta]\nratios = 0.25,0.25,0.25,0.25\n",
            "c.ini"))
        assert np.array_equal(one.zeta.values, per_gen.zeta.values)
        assert np.array_equal(one.zeta.values, full.zeta.values)

    def test_psi_letters_broadcast(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[psi]\nletters = -0.3, -0.5\n"))
        assert list(cfg.psi.values) == [-0.3, -0.3, -0.5, -0.5]

    def test_file_reference_relative_to_config(self, tmp_path):
        from freeshift import Potential
        sub = tmp_path / "sub"
        sub.mkdir()
        pot = Potential.from_letter_values(2, [-1.0, -1.0, -0.5, -0.5])
        oracles.save_potential_csv(pot, str(sub / "psi.csv"))
        cfg = load_config(_write(sub, MINIMAL + "[psi]\nfile = psi.csv\n"))
        assert np.allclose(cfg.psi.values, pot.values)

    def test_zeta_constant_gives_the_closed_form(self, tmp_path, s3):
        # [zeta] constant = -0.7 is the contraction e^-0.7 on every letter:
        # delta = log 3 / 0.7, and the same on the finite quotient S3
        (tmp_path / "s3.table").write_text(
            f"{len(s3.table)} {s3.identity}\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in s3.table))
        images = ", ".join(map(str, s3.generator_images))
        cfg = load_config(_write(
            tmp_path, "[model]\nd = 2\n\n[zeta]\nconstant = -0.7\n\n"
                      "[quotient]\ntype = finite\nfile = s3.table\n"
                      f"images = {images}\n"))
        assert isinstance(cfg.zeta, GeometricPotential)
        assert np.array_equal(cfg.zeta.values, np.full(4, -0.7))
        for quotient in (None, cfg.quotient):
            assert delta(cfg.zeta, quotient=quotient).t == pytest.approx(
                math.log(3) / 0.7, abs=1e-12)

    def test_zeta_file_enforces_negativity(self, tmp_path):
        from freeshift import Potential
        pot = Potential.from_letter_values(2, [0.5, -1.0, -1.0, -1.0])
        oracles.save_potential_csv(pot, str(tmp_path / "z.csv"))
        text = "[model]\nd = 2\n\n[zeta]\nfile = z.csv\n"
        with pytest.raises(ValidationError, match="negative"):
            load_config(_write(tmp_path, text))


class TestQuotientForms:
    def test_none_type(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL + "[quotient]\n"
                                                     "type = none\n"))
        assert cfg.quotient is None

    def test_abelian(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[quotient]\ntype = abelian\nrank = 2\n"
                                "vectors = 1,0; 0,1\n"))
        assert isinstance(cfg.quotient, FreeAbelianQuotient)
        assert cfg.quotient.eval_word((0, 2)) == (1, 1)

    def test_freekill_is_one_based(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[quotient]\ntype = freekill\nkilled = 2\n"))
        assert isinstance(cfg.quotient, FreeKillQuotient)
        assert cfg.quotient.letter_image(2) == ()   # g2 killed
        with pytest.raises(ValidationError, match="1-based"):
            load_config(_write(
                tmp_path,
                MINIMAL + "[quotient]\ntype = freekill\nkilled = 0\n",
                "bad.ini"))

    def test_finite_from_table_file(self, tmp_path):
        (tmp_path / "z2.table").write_text("2 0\n0 1\n1 0\n")
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[quotient]\ntype = finite\nfile = z2.table\n"
                                "images = 1, 1\n"))
        assert isinstance(cfg.quotient, FiniteQuotient)
        assert cfg.quotient.eval_word((0, 2)) == 0

    def test_unknown_type(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown quotient type"):
            load_config(_write(
                tmp_path, MINIMAL + "[quotient]\ntype = wreath\n"))


class TestGridAndOutput:
    def test_grid_values(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[grid]\nbeta_min = -1\nbeta_max = 1\n"
                                "beta_step = 0.5\nalpha_count = 9\n"))
        assert np.allclose(cfg.betas, [-1, -0.5, 0, 0.5, 1])
        assert cfg.alpha_count == 9

    def test_output_dir_resolves_relative(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, MINIMAL + "[output]\ndirectory = results\n"))
        assert cfg.out_dir == str(tmp_path / "results")

    def test_inline_comments(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "[model]\nd = 2  # rank\n\n[zeta]\nratios = 0.25\n"))
        assert cfg.d == 2
