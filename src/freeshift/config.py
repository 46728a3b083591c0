"""Run configuration: one INI-style file drives every CLI subcommand.

Grammar (configparser dialect): sections in brackets, key = value pairs,
# comments. [model] d and a [zeta] geometry are required; everything else
has a default. File references inside the config resolve relative to the
config file's own directory. See the README for the full key table.
"""

import math
import os
from configparser import ConfigParser

# hashlib loads OpenSSL (a few MB per process) for one digest of a small
# file: take the interpreter's built-in sha256 first, as random.py does
try:
    from _sha2 import sha256                # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256          # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import ValidationError
from .potentials import GeometricPotential, Potential, load_potential_csv
from .pressure import FIBER_MAX_STATES
from .quotients import (FiniteQuotient, FreeAbelianQuotient,
                        FreeKillQuotient)
from .spectra import default_beta_grid

_ALLOWED = {
    "model": {"d", "seed"},
    "quotient": {"type", "file", "images", "rank", "vectors", "killed"},
    "zeta": {"constant", "ratios", "file"},
    "psi": {"constant", "letters", "file"},
    "grid": {"beta_min", "beta_max", "beta_step", "alpha_count"},
    "tolerances": {"eigen", "bisection", "sigma_factor"},
    "budgets": {"n_max", "max_states", "gibbs_len", "horizon",
                "return_length"},
    "output": {"directory"},
}


class RunConfig:
    """The validated settings of one run. ``quotient`` is None for the full
    shift; ``overrides`` records the command-line flags that replaced a
    config value (the CLI echoes it in every JSON summary)."""

    def __init__(self, d, zeta, psi, quotient, betas, alpha_count,
                 tol_eigen, tol_bisection, sigma_factor, n_max, max_states,
                 gibbs_len, horizon, return_length, out_dir, seed,
                 config_hash, overrides=None):
        self.d = d
        self.zeta = zeta
        self.psi = psi
        self.quotient = quotient
        self.betas = betas
        self.alpha_count = alpha_count
        self.tol_eigen = tol_eigen
        self.tol_bisection = tol_bisection
        self.sigma_factor = sigma_factor
        self.n_max = n_max
        self.max_states = max_states
        self.gibbs_len = gibbs_len
        self.horizon = horizon
        self.return_length = return_length
        self.out_dir = out_dir
        self.seed = seed
        self.config_hash = config_hash
        self.overrides = {} if overrides is None else overrides

    def describe_quotient(self):
        return "none" if self.quotient is None else self.quotient.describe()


def parse_number(text, kind, where):
    """``text`` as an int or a finite float (``kind``); a ValidationError
    naming ``where`` when it is not one."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        expects = "an integer" if kind is int else "a finite number"
        raise ValidationError(f"{where} expects {expects}, got {text!r}")
    return value


def _setting(cp, section, key, kind, default=None):
    """[section] key parsed as ``kind``, or ``default`` when it is unset."""
    if not cp.has_section(section) or key not in cp[section]:
        return default
    return parse_number(cp[section][key], kind, f"[{section}] {key}")


def _floats(text):
    try:
        return [float(x) for x in text.replace(";", ",").split(",")
                if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad numeric list {text!r}: {exc}")


def _ints(text):
    vals = _floats(text)
    out = [int(v) for v in vals]
    if any(v != w for v, w in zip(vals, out)):
        raise ValidationError(f"expected integers, got {text!r}")
    return out


def _vectors(text):
    """semicolon-separated comma vectors: '1,0; 0,1'"""
    out = []
    for chunk in text.split(";"):
        if chunk.strip():
            out.append(tuple(_ints(chunk)))
    return out


def _build_zeta(cp, d, base_dir):
    if not cp.has_section("zeta"):
        raise ValidationError("missing required [zeta] section")
    sec = cp["zeta"]
    given = [k for k in ("constant", "ratios", "file") if k in sec]
    if len(given) != 1:
        raise ValidationError(
            f"[zeta] needs exactly one of constant/ratios/file, got {given}")
    if "constant" in sec:
        v = parse_number(sec["constant"], float, "[zeta] constant")
        if v >= 0:
            raise ValidationError(f"[zeta] constant must be < 0, got {v}")
        return GeometricPotential.constant(d, v)
    if "ratios" in sec:
        ratios = _floats(sec["ratios"])
        if len(ratios) == 1:
            ratios = ratios * (2 * d)
        if len(ratios) == d:
            # one ratio per generator, shared with the inverse letter
            ratios = [r for r in ratios for _ in (0, 1)]
        return GeometricPotential.from_ratios(d, ratios)
    return load_potential_csv(d, os.path.join(base_dir, sec["file"]),
                              geometric=True)


def _build_psi(cp, d, base_dir):
    if not cp.has_section("psi"):
        return Potential.constant(d, 0.0)
    sec = cp["psi"]
    given = [k for k in ("constant", "letters", "file") if k in sec]
    if len(given) != 1:
        raise ValidationError(
            f"[psi] needs exactly one of constant/letters/file, got {given}")
    if "constant" in sec:
        return Potential.constant(
            d, parse_number(sec["constant"], float, "[psi] constant"))
    if "letters" in sec:
        vals = _floats(sec["letters"])
        if len(vals) == d:
            vals = [v for v in vals for _ in (0, 1)]
        return Potential.from_letter_values(d, vals)
    return load_potential_csv(d, os.path.join(base_dir, sec["file"]))


def _build_quotient(cp, d, base_dir):
    if not cp.has_section("quotient"):
        return None
    sec = cp["quotient"]
    qtype = sec.get("type", "none").strip().lower()
    if qtype == "none":
        return None
    if qtype == "finite":
        if "file" not in sec or "images" not in sec:
            raise ValidationError(
                "[quotient] type=finite needs file= (table) and images=")
        images = _ints(sec["images"])
        return FiniteQuotient.from_file(
            d, os.path.join(base_dir, sec["file"]), images)
    if qtype == "abelian":
        if "rank" not in sec or "vectors" not in sec:
            raise ValidationError(
                "[quotient] type=abelian needs rank= and vectors=")
        rank = parse_number(sec["rank"], int, "[quotient] rank")
        vectors = _vectors(sec["vectors"])
        return FreeAbelianQuotient(d, rank, vectors)
    if qtype == "freekill":
        if "killed" not in sec:
            raise ValidationError("[quotient] type=freekill needs killed=")
        killed = _ints(sec["killed"])
        bad = [k for k in killed if not 1 <= k <= d]
        if bad:
            raise ValidationError(
                f"killed generator indices must be in 1..{d} "
                f"(1-based), got {bad}")
        return FreeKillQuotient(d, killed={k - 1 for k in killed})
    raise ValidationError(
        f"unknown quotient type {qtype!r} "
        f"(expected none|finite|abelian|freekill)")


def load_config(path):
    """Parse and validate a run configuration; fails before any
    computation starts."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = sha256(raw).hexdigest()
    cp = ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(raw.decode("utf-8"))
    except Exception as exc:
        raise ValidationError(f"config parse error: {exc}")
    for section in cp.sections():
        if section not in _ALLOWED:
            raise ValidationError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _ALLOWED[section]:
                raise ValidationError(
                    f"unknown key {key!r} in [{section}] "
                    f"(allowed: {sorted(_ALLOWED[section])})")
    if not cp.has_section("model") or "d" not in cp["model"]:
        raise ValidationError("config must set d in a [model] section")
    d = _setting(cp, "model", "d", int)
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    seed = _setting(cp, "model", "seed", int, 0)
    if seed < 0:
        raise ValidationError(f"[model] seed must be >= 0, got {seed}")
    base_dir = os.path.dirname(os.path.abspath(path))

    zeta = _build_zeta(cp, d, base_dir)
    psi = _build_psi(cp, d, base_dir)
    quotient = _build_quotient(cp, d, base_dir)

    betas = default_beta_grid(*(_setting(cp, "grid", key, float) for key in
                                ("beta_min", "beta_max", "beta_step")))
    alpha_count = _setting(cp, "grid", "alpha_count", int, len(betas))
    if alpha_count < 1:
        raise ValidationError("alpha_count must be >= 1")

    tol_eigen = _setting(cp, "tolerances", "eigen", float, 1e-13)
    tol_bisection = _setting(cp, "tolerances", "bisection", float, 1e-10)
    sigma_factor = _setting(cp, "tolerances", "sigma_factor", float, 3.0)
    if min(tol_eigen, tol_bisection) <= 0 or sigma_factor <= 0:
        raise ValidationError("tolerances must be positive")

    n_max = _setting(cp, "budgets", "n_max", int, 40)
    max_states = _setting(cp, "budgets", "max_states", int,
                          FIBER_MAX_STATES)
    gibbs_len = _setting(cp, "budgets", "gibbs_len", int, 8)
    horizon = _setting(cp, "budgets", "horizon", int, 30)
    return_length = _setting(cp, "budgets", "return_length", int, 6)
    for name, v in [("n_max", n_max), ("max_states", max_states),
                    ("gibbs_len", gibbs_len), ("horizon", horizon),
                    ("return_length", return_length)]:
        if v < 1:
            raise ValidationError(f"budget {name} must be >= 1, got {v}")

    out_dir = cp["output"].get("directory", ".") \
        if cp.has_section("output") else "."
    out_dir = os.path.join(base_dir, out_dir)

    return RunConfig(d, zeta, psi, quotient, betas, alpha_count, tol_eigen,
                     tol_bisection, sigma_factor, n_max, max_states,
                     gibbs_len, horizon, return_length, out_dir, seed,
                     digest)
