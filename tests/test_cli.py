import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import freeshift.spectra as spectra_mod
from freeshift import cli, load_config
from freeshift.quotients import Quotient

BASE = """\
[model]
d = 2

[zeta]
ratios = 0.25
"""

Z2 = BASE + """
[quotient]
type = abelian
rank = 2
vectors = 1,0; 0,1

[budgets]
n_max = 40
"""

SPECTRUM = """\
[model]
d = 2

[quotient]
type = abelian
rank = 2
vectors = 1,0; 0,1

[zeta]
ratios = 0.5, 0.333333333333333

[psi]
constant = -1.0

[grid]
beta_min = -2.0
beta_max = 2.0
beta_step = 0.5
alpha_count = 11

[budgets]
n_max = 25
"""


# zmod2 quotient, two-ratio zeta (free energies need the root finder) and
# an inverse-symmetric psi (the pressure inequality uses it)
ZMOD2 = """\
[model]
d = 2

[quotient]
type = finite
file = zmod2.table
images = 1, 1

[zeta]
ratios = 0.5, 0.333333333333333

[psi]
letters = -0.3, -0.5

[grid]
beta_min = 0
beta_max = 0.5
beta_step = 0.5

[budgets]
n_max = 20
horizon = 10
gibbs_len = 4
"""


# F3 with g3 killed: the quotient whose restricted values are still
# extrapolated, with positive sigmas
FK3 = """\
[model]
d = 3

[quotient]
type = freekill
killed = 3

[zeta]
ratios = 0.25
"""


def fk3_ini(tmp_path):
    p = tmp_path / "fk3.ini"
    p.write_text(FK3)
    return str(p)


def zmod2_ini(tmp_path, extra="", name="zmod2.ini"):
    (tmp_path / "zmod2.table").write_text("2 0\n0 1\n1 0\n")
    p = tmp_path / name
    p.write_text(ZMOD2 + extra)
    return str(p)


def s3_ini(tmp_path, text):
    """``text`` with its Z^2 quotient swapped for S3 (a finite quotient),
    written next to the S3 multiplication table."""
    _, table, ident, index = oracles.perm_group_table(
        [(1, 0, 2), (1, 2, 0)])
    (tmp_path / "s3.table").write_text(
        f"{len(table)} {ident}\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in table))
    p = tmp_path / "s3.ini"
    p.write_text(text.replace(
        "type = abelian\nrank = 2\nvectors = 1,0; 0,1",
        "type = finite\nfile = s3.table\n"
        f"images = {index[(1, 0, 2)]}, {index[(1, 2, 0)]}"))
    return str(p)


def run_cli(capsys, args):
    code = cli.main(args)
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


@pytest.fixture
def base_ini(tmp_path):
    p = tmp_path / "base.ini"
    p.write_text(BASE)
    return str(p)


@pytest.fixture
def z2_ini(tmp_path):
    p = tmp_path / "z2.ini"
    p.write_text(Z2)
    return str(p)


class TestSubcommands:
    def test_delta_example(self, capsys, base_ini):
        code, payload, _ = run_cli(capsys, ["delta", "--config", base_ini])
        assert code == 0
        assert payload["delta"]["value"] == pytest.approx(
            math.log(3) / math.log(4), abs=1e-9)
        assert payload["quotient"] == "none"
        assert "delta_N" not in payload
        assert len(payload["config_hash"]) == 64

    def test_delta_with_quotient(self, capsys, z2_ini):
        # Z^2 is amenable: the exact twisted delta_N equals delta
        code, payload, _ = run_cli(capsys, ["delta", "--config", z2_ini])
        assert code == 0
        assert payload["delta_N"]["method"] == "exact-twisted"
        assert payload["delta_N"]["sigma"] == 0
        assert abs(payload["delta_N"]["value"]
                   - payload["delta"]["value"]) <= 1e-9

    def test_delta_with_free_kill_quotient(self, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, ["delta", "--config",
                                            fk3_ini(tmp_path)])
        assert code == 0
        assert payload["delta_N"]["method"] == "extrapolated"
        assert payload["delta_N"]["sigma"] > 0

    def test_pressure(self, capsys, z2_ini):
        code, payload, _ = run_cli(capsys, ["pressure", "--config", z2_ini])
        assert code == 0
        assert payload["full"]["value"] == pytest.approx(math.log(3),
                                                         abs=1e-12)
        assert payload["restricted"]["method"] == "exact-twisted"
        assert payload["restricted"]["value"] == pytest.approx(math.log(3),
                                                               abs=1e-12)
        # the growth fit at n_max 40 sits below the exact value
        fit = payload["restricted_fit"]
        assert fit["method"] == "extrapolated"
        assert 0 < math.log(3) - fit["value"] <= 0.02

    def test_cogrowth_example(self, capsys, z2_ini):
        code, payload, _ = run_cli(capsys, ["cogrowth", "--config", z2_ini])
        assert code == 0
        assert payload["eta"] == pytest.approx(1.0, abs=0.02)

    def test_partition_example(self, capsys, z2_ini, tmp_path):
        out = tmp_path / "artifacts"
        code, payload, _ = run_cli(
            capsys, ["partition", "--config", z2_ini, "--n-max", "4",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "partition.csv").read_text().splitlines()
        assert rows[0] == "n,a_n,log_a_n"
        assert rows[1].split(",")[:2] == ["2", "0"]
        assert rows[2].split(",")[:2] == ["4", "8"]
        assert payload["period"] == 2

    def test_partition_beyond_float_range(self, capsys, tmp_path):
        # FK3 with psi letters (10, -10, 0): log a_80 exceeds the largest
        # float's log, so a_n is printed by exact decimal exponentiation
        ini = tmp_path / "wide.ini"
        ini.write_text("[model]\nd = 3\n\n[quotient]\ntype = freekill\n"
                       "killed = 3\n\n[zeta]\nratios = 0.5\n\n"
                       "[psi]\nletters = 10, -10, 0\n")
        out = tmp_path / "artifacts"
        code, payload, _ = run_cli(
            capsys, ["partition", "--config", str(ini), "--n-max", "80",
                     "--out", str(out)])
        assert code == 0
        assert "log_mode" not in payload
        rows = (out / "partition.csv").read_text().splitlines()
        assert rows[-1] == "80,5.23746711575e+341,786.837354718"

    def test_partition_below_float_range(self, capsys, tmp_path):
        # FK3 with psi = -20: from n = 39 on a_n is subnormal or below the
        # float range, so it is printed by exact decimal exponentiation,
        # never as 0 or with a subnormal float's lost digits
        ini = tmp_path / "deep.ini"
        ini.write_text("[model]\nd = 3\n\n[quotient]\ntype = freekill\n"
                       "killed = 3\n\n[zeta]\nratios = 0.5\n\n"
                       "[psi]\nconstant = -20.0\n")
        out = tmp_path / "artifacts"
        code, _, _ = run_cli(
            capsys, ["partition", "--config", str(ini), "--n-max", "80",
                     "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in
                (out / "partition.csv").read_text().splitlines()[1:]]
        assert len(rows) == 80
        assert not [n for n, a, log_a in rows
                    if a == "0" and log_a != "-inf"]
        assert rows[38] == ["39", "8.06042504799e-317", "-727.832508189"]
        assert rows[-1] == ["80", "2.19598833701e-647", "-1488.98592295"]

    def test_spectrum(self, capsys, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(SPECTRUM)
        out = tmp_path / "artifacts"
        code, payload, _ = run_cli(
            capsys, ["spectrum", "--config", str(ini), "--out", str(out)])
        assert code == 0
        for tag in ("full", "restricted"):
            assert payload[tag]["alpha_minus"] < payload[tag]["alpha_plus"]
            assert payload[tag]["convexity_margin"] >= 0
        files = {f.name for f in out.iterdir()}
        assert files == {"free_energy_full.csv", "spectrum_full.csv",
                         "free_energy_quotient.csv", "spectrum_quotient.csv"}
        spec_rows = (out / "spectrum_full.csv").read_text().splitlines()
        assert len(spec_rows) == 1 + 11        # alpha_count honored
        # 12 significant digits in CSV floats
        t_cell = (out / "free_energy_full.csv").read_text() \
            .splitlines()[1].split(",")[1]
        assert len(t_cell.replace("-", "").replace(".", "")) >= 11

    def test_dimension_warning_captured(self, capsys, tmp_path):
        ini = tmp_path / "dim.ini"
        ini.write_text("[model]\nd = 2\n\n[zeta]\nratios = 0.6\n")
        code, payload, _ = run_cli(capsys, ["dimension", "--config",
                                            str(ini)])
        assert code == 0
        want = math.log(3) / -math.log(0.6)
        assert payload["dimension"]["value"] == pytest.approx(want,
                                                              abs=1e-9)
        assert "ambient" in payload["ambient_warning"]

    def test_induced_edges(self, capsys, z2_ini, tmp_path):
        out = tmp_path / "ie"
        code, payload, _ = run_cli(
            capsys, ["induced-edges", "--config", z2_ini, "--out", str(out)])
        assert code == 0
        ident, img, mul = oracles.abelian_ops(
            2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        want = oracles.brute_first_returns(2, 6, ident, img, mul)
        assert payload["count"] == len(want)
        rows = (out / "induced_edges.csv").read_text().splitlines()
        assert rows[0] == "length,word"
        assert len(rows) == 1 + len(want)

    def test_diagnose(self, capsys, tmp_path):
        ini = tmp_path / "diag.ini"
        ini.write_text(Z2 + "[grid]\nbeta_min = -1\nbeta_max = 1\n"
                            "beta_step = 0.5\n\n")
        code, payload, _ = run_cli(capsys, ["diagnose", "--config",
                                            str(ini)])
        assert code == 0
        assert payload["self_verified"] is True
        reports = payload["reports"]
        assert reports["amenability"]["verdict"] == \
            "consistent with amenable"
        assert reports["half_bound"]["verdict"] == "holds"
        assert reports["pressure_inequality"]["verdict"] == "holds"
        assert reports["gibbs"]["verdict"] == "verified"
        assert reports["symmetric_on_average"]["value"] == pytest.approx(
            1.0, abs=0.1)

    def test_diagnose_thins_the_grid_to_nine_betas(self, base_ini):
        # the default 161-point grid gives beta = -4, -3, ..., 4; a grid of
        # 10 keeps 9 distinct points, and one of at most 9 stays whole
        cfg = load_config(base_ini)
        assert len(cfg.betas) == 161
        assert cli._diag_betas(cfg).tolist() == list(range(-4, 5))
        cfg.betas = np.linspace(0.0, 0.9, 10)
        assert cli._diag_betas(cfg).tolist() == \
            cfg.betas[[0, 1, 2, 3, 4, 6, 7, 8, 9]].tolist()
        cfg.betas = np.linspace(0.0, 0.8, 9)
        assert cli._diag_betas(cfg) is cfg.betas

    def test_diagnose_asymmetric_psi_on_z2(self, capsys, tmp_path):
        # Z^2 is amenable, but this psi drifts: t_N(1) sits 0.6 below t(1)
        # by the optimal twist, which says nothing about amenability
        ini = tmp_path / "drift.ini"
        ini.write_text(Z2.replace("ratios = 0.25",
                                  "ratios = 0.5, 0.333333333333")
                       + "\n[psi]\nletters = 1.0, -1.0, 0.0, 0.0\n")
        code, payload, _ = run_cli(capsys, [
            "diagnose", "--config", str(ini), "--beta-range=0:1:1",
            "--n-max", "24"])
        assert code == 0
        assert payload["self_verified"] is True
        amenability = payload["reports"]["amenability"]
        assert amenability["verdict"] != "non-amenable detected"
        assert [s["name"] for s in amenability["slacks"]] == ["gap(beta=0)"]
        assert payload["reports"]["half_bound"]["verdict"] == "holds"

    def test_diagnose_gibbs_check_on_a_huge_psi(self, capsys, tmp_path):
        # e^800 overflows a float: the Gibbs check must solve on the
        # tilted weights, as every pressure does
        ini = tmp_path / "huge.ini"
        ini.write_text(Z2 + "\n[psi]\nletters = 800, 799\n")
        code, payload, _ = run_cli(capsys, [
            "diagnose", "--config", str(ini), "--beta-range=0:1:1"])
        assert code == 0
        assert payload["self_verified"] is True
        gibbs = payload["reports"]["gibbs"]
        assert gibbs["verdict"] == "verified"
        assert 800 < gibbs["quantities"][0]["value"] < 801

    def test_sigma_factor_scales_tolerances(self, capsys, tmp_path):
        # on FK3 the restricted values are extrapolated, so their sigmas
        # are positive and the factor shows in every slack tolerance
        grid = ("[grid]\nbeta_min = 0\nbeta_max = 0.5\nbeta_step = 0.5\n\n"
                "[budgets]\nn_max = 20\nhorizon = 10\ngibbs_len = 4\n")
        tols = []
        for factor in (3.0, 6.0):
            ini = tmp_path / f"k{factor:g}.ini"
            ini.write_text(FK3 + grid + f"\n[tolerances]\n"
                                        f"sigma_factor = {factor}\n")
            code, payload, _ = run_cli(capsys, ["diagnose", "--config",
                                                str(ini)])
            assert code == 0
            tols.append({(name, s["name"]): s["tol"]
                         for name, rep in payload["reports"].items()
                         for s in rep.get("slacks", [])})
        k3, k6 = tols
        assert k3.keys() == k6.keys()
        scaled = {key for key in k3
                  if key[0] in ("amenability", "half_bound",
                                "pressure_inequality")}
        assert len(scaled) >= 3
        floor = 1e-8
        for key in k3:
            if key in scaled:
                assert k3[key] > floor
                assert k6[key] - floor == pytest.approx(
                    2 * (k3[key] - floor), rel=1e-9), key
            else:
                assert k6[key] == k3[key], key

    def test_diagnose_computes_each_curve_once(self, capsys, tmp_path,
                                               monkeypatch):
        # the scope of every curve diagnose asks for, and every curve built
        built, made = [], []
        curve = cli.free_energy_curve

        def spy(*args, quotient=None, **kw):
            built.append("full" if quotient is None else quotient.describe())
            return curve(*args, quotient=quotient, **kw)

        class CountingCurve(spectra_mod.FreeEnergyCurve):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(self)

        monkeypatch.setattr(cli, "free_energy_curve", spy)
        monkeypatch.setattr(spectra_mod, "FreeEnergyCurve", CountingCurve)
        code, payload, _ = run_cli(capsys, ["diagnose", "--config",
                                            zmod2_ini(tmp_path)])
        assert code == 0
        assert payload["self_verified"] is True
        assert sorted(built) == sorted(["full", payload["quotient"]])
        assert len(made) == len(built)

    def test_diagnose_on_the_trivial_group(self, capsys, tmp_path):
        # every letter maps to the identity of the order-1 group, so the
        # statistic has no generator image but the identity to compare
        (tmp_path / "one.table").write_text("1 0\n0\n")
        ini = tmp_path / "one.ini"
        ini.write_text(ZMOD2.replace("zmod2.table", "one.table")
                       .replace("images = 1, 1", "images = 0, 0"))
        code, payload, _ = run_cli(capsys, ["diagnose", "--config", str(ini),
                                            "--out", str(tmp_path / "o")])
        assert code == 0
        assert payload["self_verified"] is True
        stat = payload["reports"]["symmetric_on_average"]
        assert stat["per_g"] == {"0": 1.0}
        assert stat["value"] == 1.0

    @staticmethod
    def _ball_radii(monkeypatch):
        """The radius of every Quotient.ball call from here on."""
        radii = []
        ball = Quotient.ball

        def spy(self, radius, max_elements=5_000_000):
            radii.append(radius)
            return ball(self, radius, max_elements)

        monkeypatch.setattr(Quotient, "ball", spy)
        return radii

    def test_diagnose_builds_one_ball(self, capsys, tmp_path, monkeypatch):
        # the divergence probe and the symmetric-on-average statistic read
        # one fiber length, max(n_max, 36, horizon), so one ball table, of
        # the half radius floor((36 + 1) / 2) for identity and letter targets
        radii = self._ball_radii(monkeypatch)
        ini = tmp_path / "z2.ini"
        ini.write_text(SPECTRUM)
        code, payload, _ = run_cli(capsys, [
            "diagnose", "--config", str(ini), "--beta-range=0:1:1",
            "--n-max", "24"])
        assert code == 0
        assert payload["self_verified"] is True
        assert radii == [18]

    def test_partition_builds_half_radius_ball(self, capsys, tmp_path,
                                               monkeypatch):
        # the identity fiber up to n_max 80 reads ball(floor((80 + 1) / 2))
        radii = self._ball_radii(monkeypatch)
        ini = tmp_path / "z2.ini"
        ini.write_text(SPECTRUM)
        code, payload, _ = run_cli(capsys, [
            "partition", "--config", str(ini), "--n-max", "80", "--out",
            str(tmp_path / "o")])
        assert code == 0
        assert payload["rows"] == 40
        assert radii == [40]


class TestTolerances:
    """--tolerance sets the root tolerance in u and [tolerances] eigen the
    Perron tolerance of every free energy and pressure a subcommand
    prints."""

    @staticmethod
    def _values(payload, reports):
        return {name: [q["value"] for q in payload["reports"][name]
                       ["quantities"]] for name in reports}

    def test_tolerance_moves_dimension(self, capsys, tmp_path):
        ini = tmp_path / "dim.ini"
        ini.write_text("[model]\nd = 2\n\n[zeta]\n"
                       "ratios = 0.5, 0.333333333333333\n")
        values = []
        for extra in ([], ["--tolerance", "1e-2"]):
            code, payload, _ = run_cli(
                capsys, ["dimension", "--config", str(ini)] + extra)
            assert code == 0
            values.append(payload["dimension"]["value"])
        fine, coarse = values
        assert coarse != fine
        assert abs(coarse - fine) <= 1e-2

    def test_tolerance_moves_diagnose(self, capsys, tmp_path):
        ini = zmod2_ini(tmp_path)
        runs = [run_cli(capsys, ["diagnose", "--config", ini] + extra)[1]
                for extra in ([], ["--tolerance", "1e-2"])]
        reports = ("amenability", "half_bound")
        fine, coarse = (self._values(p, reports) for p in runs)
        for name in reports:
            assert coarse[name] != fine[name], name
            assert np.allclose(coarse[name], fine[name], atol=1e-2), name

    def test_eigen_tolerance_moves_diagnose(self, capsys, tmp_path):
        runs = [run_cli(capsys, ["diagnose", "--config",
                                 zmod2_ini(tmp_path, extra, name)])[1]
                for extra, name in (
                    ("", "fine.ini"),
                    ("\n[tolerances]\neigen = 1e-4\n", "coarse.ini"))]
        reports = ("amenability", "half_bound", "pressure_inequality")
        fine, coarse = (self._values(p, reports) for p in runs)
        for name in reports:
            assert coarse[name] != fine[name], name
            assert np.allclose(coarse[name], fine[name], atol=1e-3), name


class TestOverridesAndErrors:
    def test_overrides_recorded(self, capsys, z2_ini, tmp_path):
        code, payload, _ = run_cli(
            capsys, ["cogrowth", "--config", z2_ini, "--n-max", "30",
                     "--tolerance", "1e-9"])
        assert code == 0
        assert payload["overrides"] == {"n_max": 30, "tolerance": 1e-9}

    def test_beta_range_override(self, capsys, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(SPECTRUM)
        out = tmp_path / "o"
        code, payload, _ = run_cli(
            capsys, ["spectrum", "--config", str(ini), "--out", str(out),
                     "--beta-range=-1:1:0.5"])
        assert code == 0
        assert payload["overrides"]["beta_range"] == "-1:1:0.5"
        rows = (out / "free_energy_full.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["-1", "-0.5", "0", "0.5", "1"]

    def test_validation_exit_2(self, capsys, base_ini):
        code, payload, err = run_cli(capsys, ["cogrowth", "--config",
                                              base_ini])
        assert code == 2
        assert payload["error"]["type"] == "ValidationError"
        assert "quotient" in err

    def test_bad_config_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE + "[mystery]\nx = 1\n")
        code, payload, _ = run_cli(capsys, ["delta", "--config", str(bad)])
        assert code == 2
        assert "mystery" in payload["error"]["message"]

    def test_bad_beta_range_exit_2(self, capsys, base_ini):
        code, payload, _ = run_cli(
            capsys, ["delta", "--config", base_ini, "--beta-range", "oops"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--n-max", "--tolerance"])
    def test_nonpositive_override_exit_2(self, capsys, base_ini, flag):
        code, payload, err = run_cli(
            capsys, ["delta", "--config", base_ini, flag, "0"])
        assert code == 2
        assert payload["error"]["type"] == "ValidationError"
        assert flag in payload["error"]["message"]
        assert "Traceback" not in err

    def test_threads_flag_exit_2(self, capsys, base_ini):
        # no flag sets a thread count: argparse refuses --threads like any
        # unknown flag, with exit code 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["delta", "--config", base_ini, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command, step, flags", [
        ("spectrum", "0.5", ["--beta-range=0:1:5"]),
        ("spectrum", "5", []),
        ("diagnose", "5", []),
    ], ids=["spectrum-flag", "spectrum-config", "diagnose-config"])
    def test_one_point_beta_grid_exit_2(self, capsys, tmp_path, command,
                                        step, flags):
        # a step wider than the range leaves one beta, which has no
        # Legendre transform: a typed error, not a crash in np.gradient
        ini = zmod2_ini(tmp_path)
        Path(ini).write_text(ZMOD2.replace("beta_step = 0.5",
                                           f"beta_step = {step}"))
        code, payload, err = run_cli(
            capsys, [command, "--config", ini, "--out",
                     str(tmp_path / "o")] + flags)
        assert code == 2
        assert payload["error"]["type"] == "ValidationError"
        assert payload["error"]["exit_code"] == 2
        assert "two or more points" in payload["error"]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, flags, where", [
        (BASE.replace("d = 2", "d = two"), [], "[model] d"),
        (BASE.replace("ratios = 0.25", "constant = -1x"), [],
         "[zeta] constant"),
        (BASE + "\n[grid]\nbeta_step = fine\n", [], "[grid] beta_step"),
        (BASE, ["--beta-range=a:1:1"], "--beta-range"),
        (BASE, ["--n-max", "two"], "--n-max"),
        (BASE, ["--tolerance", "abc"], "--tolerance"),
        # non-finite numbers gave delta 0.0 and a bare Infinity token
        # (exit 0), 100 uncertified rounds or 100 000 power steps (exit 4)
        # and an OverflowError traceback (exit 1)
        (BASE, ["--tolerance", "inf"], "--tolerance"),
        (BASE, ["--tolerance", "nan"], "--tolerance"),
        (BASE + "\n[tolerances]\neigen = nan\n", [], "[tolerances] eigen"),
        (BASE, ["--beta-range=0:inf:1"], "--beta-range"),
    ], ids=["d", "zeta-constant", "beta-step", "beta-range", "n-max",
            "tolerance", "tolerance-inf", "tolerance-nan", "eigen-nan",
            "beta-range-inf"])
    def test_malformed_number_exit_2(self, capsys, tmp_path, text, flags,
                                     where):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        code, payload, err = run_cli(
            capsys, ["delta", "--config", str(ini)] + flags)
        assert code == 2
        assert payload["error"]["type"] == "ValidationError"
        assert where in payload["error"]["message"]
        assert "Traceback" not in err

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        # a constant psi sends the Gibbs check to the seeded potential
        ini = zmod2_ini(tmp_path)
        Path(ini).write_text(ZMOD2.replace("d = 2", "d = 2\nseed = -3")
                             .replace("letters = -0.3, -0.5",
                                      "constant = -1.0"))
        code, payload, err = run_cli(capsys, ["diagnose", "--config", ini])
        assert code == 2
        assert payload["error"]["type"] == "ValidationError"
        assert "seed" in payload["error"]["message"]
        assert "Traceback" not in err

    def test_resource_exit_3(self, capsys, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(BASE + "\n[quotient]\ntype = abelian\nrank = 2\n"
                              "vectors = 1,0; 0,1\n\n"
                              "[budgets]\nn_max = 30\nmax_states = 10\n")
        code, payload, _ = run_cli(capsys, ["partition", "--config",
                                            str(ini), "--out",
                                            str(tmp_path / "o")])
        assert code == 3
        assert payload["error"]["type"] == "ResourceError"
        assert payload["error"]["exit_code"] == 3

    @pytest.mark.parametrize("scope, command", [
        ("z2", "pressure"), ("z2", "diagnose"), ("fk3", "pressure")])
    def test_fiber_budget_exit_3(self, capsys, tmp_path, scope, command):
        # the restricted pressure and fit, the divergence probe and the
        # statistic honour [budgets] max_states as partition does
        if scope == "z2":
            ini = tmp_path / "z2.ini"
            ini.write_text(SPECTRUM + "max_states = 10\n")
        else:
            ini = Path(fk3_ini(tmp_path))
            ini.write_text(ini.read_text()
                           + "\n[budgets]\nmax_states = 10\n")
        code, payload, err = run_cli(capsys, [command, "--config", str(ini),
                                              "--beta-range=0:1:1"])
        assert code == 3
        assert payload["error"]["type"] == "ResourceError"
        assert "budget 10" in payload["error"]["message"]
        assert "Traceback" not in err

    def test_free_kill_resource_exit_3(self, capsys, tmp_path):
        # the renewal honours the budget as the ball DP does
        ini = Path(fk3_ini(tmp_path))
        ini.write_text(ini.read_text() + "\n[budgets]\nmax_states = 10\n")
        code, payload, err = run_cli(capsys, ["partition", "--config",
                                              str(ini), "--out",
                                              str(tmp_path / "o")])
        assert code == 3
        assert payload["error"]["type"] == "ResourceError"
        assert "renewal" in payload["error"]["message"]
        assert "Traceback" not in err

    def test_numeric_exit_4(self, capsys, tmp_path):
        # three fiber terms are too few for the growth fit of FK3's rate
        code, payload, _ = run_cli(
            capsys, ["cogrowth", "--config", fk3_ini(tmp_path), "--n-max",
                     "3"])
        assert code == 4
        assert payload["error"]["type"] == "NumericError"


# FK3 with a wide psi: its partition makes the largest GEMMs of the CLI runs
FK3_WIDE = """\
[model]
d = 3

[quotient]
type = freekill
killed = 3

[zeta]
ratios = 0.5, 0.333333333333, 0.25

[psi]
letters = 10, -10, 0
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def child_env(**settings):
    """Environment of a child interpreter: the caller's without any BLAS
    thread count, src on the path (the child does not see pytest's
    pythonpath setting), then settings."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(settings)
    return env


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        (tmp_path / "s.ini").write_text(SPECTRUM)
        (tmp_path / "w.ini").write_text(FK3_WIDE)
        # Z^2 with an asymmetric psi: the twisted roots and the twisted
        # ball DP have theta* != 0
        (tmp_path / "a.ini").write_text(SPECTRUM.replace(
            "constant = -1.0", "letters = -0.2, 0.3, -0.6, 0.1"))
        # diagnose on S3 (exact rates in the probe and the statistic) and
        # on FK3 (the probe's gamma from the fitted rate)
        s3_ini(tmp_path, SPECTRUM)
        (tmp_path / "fk3.ini").write_text(FK3)
        runs = (("spectrum", "s.ini"), ("partition", "w.ini", "--n-max", "80"),
                ("spectrum", "a.ini"), ("partition", "a.ini", "--n-max", "80"),
                ("diagnose", "s3.ini"), ("diagnose", "fk3.ini"))
        outs, csvs = [], []
        for k in (1, 2):
            env = child_env(OPENBLAS_NUM_THREADS=str(k))
            for cmd, ini, *flags in runs:
                out = tmp_path / f"{cmd}-{ini}-{k}"
                proc = subprocess.run(
                    [sys.executable, "-m", "freeshift.cli", cmd,
                     "--config", str(tmp_path / ini), "--out", str(out),
                     *flags],
                    capture_output=True, text=True, check=True, env=env)
                outs.append(proc.stdout.replace(str(out), "OUT"))
                # diagnose writes no tables, so its directory never exists
                csvs.append(b"".join(sorted(
                    p.read_bytes() for p in out.glob("*"))))
        assert outs[:len(runs)] == outs[len(runs):]
        assert csvs[:len(runs)] == csvs[len(runs):]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counting OS threads needs /proc/self/task")
class TestBlasThreads:
    PROBE = ("import os; before = dict(os.environ); import freeshift.cli; "
             "import numpy as np; a = np.ones((512, 512)); a @ a; "
             "print(len(os.listdir('/proc/self/task')), "
             "dict(os.environ) == before, "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")

    def probe(self, **settings):
        proc = subprocess.run([sys.executable, "-c", self.PROBE],
                              capture_output=True, text=True, check=True,
                              env=child_env(**settings))
        return proc.stdout.split()

    def test_import_pins_one_thread_and_leaves_environ(self):
        assert self.probe() == ["1", "True", "None"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    @pytest.mark.parametrize("name", BLAS_THREAD_VARS)
    def test_preset_thread_count_is_honoured(self, name):
        tasks, same, value = self.probe(**{name: "2"})
        assert (tasks, same) == ("2", "True")
        assert value == ("2" if name == "OPENBLAS_NUM_THREADS" else "None")


class TestNativeFootprint:
    # every subcommand in one interpreter; none may load OpenSSL (through
    # hashlib), numpy.random or numpy.ma, which cost megabytes per process
    PROBE = ("import contextlib, io, json, sys; from freeshift import cli\n"
             "codes = []\n"
             "for cmd in sys.argv[2:]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        codes.append(cli.main([cmd, '--config', sys.argv[1]]))\n"
             "print(json.dumps([codes, [m for m in ('_hashlib', "
             "'numpy.random', 'numpy.ma') if m in sys.modules]]))")

    def test_subcommands_load_no_unused_native_code(self, tmp_path):
        # S3 with a constant psi: diagnose draws the seeded Gibbs potential,
        # and the default 161-point grid makes it thin the betas to 9
        ini = s3_ini(tmp_path, Z2 + "\n[psi]\nconstant = -1.0\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, ini, *cli._COMMANDS],
            capture_output=True, text=True, check=True, env=child_env())
        codes, loaded = json.loads(proc.stdout)
        assert codes == [0] * len(cli._COMMANDS)
        assert loaded == []
