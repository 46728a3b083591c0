"""Command-line front end.

Every subcommand reads one INI config (see config.py and the README for
the grammar), writes CSV artifacts next to a JSON summary on stdout, and
exits 0 on success, 2 on validation errors, 3 on resource-budget errors,
4 on numeric non-convergence. The JSON embeds the config file's sha256 and
any flag overrides, so identical invocations produce byte-identical output.
"""

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .config import load_config, parse_number
from .diagnostics import (VerdictReport, amenability_report,
                          divergence_probe, gibbs_verify, half_bound_check,
                          pressure_inequality_check,
                          symmetric_on_average_statistic)
from .errors import FreeshiftError, ValidationError
from .potentials import Potential, random_inverse_symmetric
from .pressure import (extrapolated_pressure, fiber_partition,
                       full_pressure, restricted_pressure)
from .spectra import (bowen_dimension, cogrowth, default_beta_grid, delta,
                      free_energy_curve, legendre)
from .words import Alphabet


def _point(p):
    return {"value": p.t, "sigma": p.sigma, "method": p.method,
            "residual": p.residual}


def _pressure(pr):
    return {"value": pr.value, "sigma": pr.sigma, "method": pr.method,
            "residual": pr.residual}


def _need_quotient(cfg, command):
    if cfg.quotient is None:
        raise ValidationError(
            f"the {command} subcommand needs a [quotient] section")


def cmd_pressure(cfg, args):
    res = {"full": _pressure(full_pressure(cfg.psi, tol=cfg.tol_eigen))}
    if cfg.quotient is not None:
        restricted = restricted_pressure(
            cfg.psi, cfg.quotient, n_max=cfg.n_max, tol=cfg.tol_eigen,
            max_states=cfg.max_states)
        res["restricted"] = _pressure(restricted)
        if restricted.method == "exact-twisted":
            # the growth fit of the identity-fiber series up to n_max, next
            # to the exact value it is a finite-n estimate of
            res["restricted_fit"] = _pressure(extrapolated_pressure(
                cfg.psi, cfg.quotient, n_max=cfg.n_max,
                max_states=cfg.max_states))
    return res, []


def cmd_delta(cfg, args):
    kw = dict(u_tol=cfg.tol_bisection, tol=cfg.tol_eigen)
    res = {"delta": _point(delta(cfg.zeta, **kw))}
    if cfg.quotient is not None:
        res["delta_N"] = _point(delta(cfg.zeta, quotient=cfg.quotient,
                                      n_max=cfg.n_max, **kw))
    return res, []


def cmd_cogrowth(cfg, args):
    _need_quotient(cfg, "cogrowth")
    c = cogrowth(cfg.quotient, n_max=cfg.n_max, tol=cfg.tol_eigen)
    return {"eta": c.eta, "sigma": c.sigma, "method": c.method,
            "fiber_rate": c.fiber_rate, "ambient_rate": c.ambient_rate}, []


def cmd_dimension(cfg, args):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        p = bowen_dimension(cfg.zeta, tol=cfg.tol_eigen,
                            u_tol=cfg.tol_bisection)
    msgs = [str(w.message) for w in rec]
    return {"dimension": _point(p),
            "ambient_warning": msgs[0] if msgs else None}, []


def _spectrum_one(cfg, quotient, tag):
    curve = free_energy_curve(
        cfg.psi, cfg.zeta, betas=cfg.betas, quotient=quotient,
        n_max=cfg.n_max, u_tol=cfg.tol_bisection, tol=cfg.tol_eigen)
    spec = legendre(curve, n_alphas=cfg.alpha_count)
    f1 = os.path.join(cfg.out_dir, f"free_energy_{tag}.csv")
    f2 = os.path.join(cfg.out_dir, f"spectrum_{tag}.csv")
    curve.write_csv(f1)
    spec.write_csv(f2)
    summary = {
        "t0": spec.t0,
        "alpha_minus": spec.alpha_minus,
        "alpha_plus": spec.alpha_plus,
        "degenerate": spec.flags == ["point"],
        "convexity_margin": curve.convexity_margin(),
        "files": [os.path.basename(f1), os.path.basename(f2)],
    }
    return summary, [f1, f2]


def cmd_spectrum(cfg, args):
    os.makedirs(cfg.out_dir, exist_ok=True)
    res, files = {}, []
    s, f = _spectrum_one(cfg, None, "full")
    res["full"] = s
    files += f
    if cfg.quotient is not None:
        s, f = _spectrum_one(cfg, cfg.quotient, "quotient")
        res["restricted"] = s
        files += f
    return res, files


def cmd_induced_edges(cfg, args):
    _need_quotient(cfg, "induced-edges")
    words = cfg.quotient.first_return_words(cfg.return_length)
    alphabet = Alphabet(cfg.d)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "induced_edges.csv")
    with open(path, "w", newline="") as fh:
        fh.write("length,word\n")
        for w in words:
            fh.write(f"{len(w)},{alphabet.word_name(w)}\n")
    counts = {}
    for w in words:
        counts[len(w)] = counts.get(len(w), 0) + 1
    return {"max_length": cfg.return_length, "count": len(words),
            "count_by_length": {str(k): v for k, v in sorted(counts.items())},
            "files": [os.path.basename(path)]}, [path]


def _a_text(log_a):
    """a_n from log a_n with 12 significant digits, like every CSV float;
    outside the normal float range (log a_n below ~-708.40, where floats
    lose digits and then flush to 0, or above ~709.78) by correctly
    rounded decimal exponentiation; 0 for an empty fiber."""
    if not math.isfinite(log_a):
        return "0"
    if math.log(sys.float_info.min) <= log_a <= math.log(sys.float_info.max):
        return f"{math.exp(log_a):.12g}"
    # imported here: loading decimal costs every other process about half a
    # megabyte of resident memory
    from decimal import Context, Decimal
    return format(Decimal(log_a).exp(Context(prec=12)).normalize(), "g")


def cmd_partition(cfg, args):
    _need_quotient(cfg, "partition")
    series = fiber_partition(cfg.psi, cfg.quotient, cfg.n_max,
                             max_states=cfg.max_states)
    p = series.period
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "partition.csv")
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write("n,a_n,log_a_n\n")
        for n, lv in zip(series.lengths, series.log_values):
            on_lattice = n % p == 0
            if not on_lattice and not math.isfinite(lv):
                continue        # empty fibers off the period lattice
            log_txt = f"{lv:.12g}" if math.isfinite(lv) else "-inf"
            fh.write(f"{n},{_a_text(lv)},{log_txt}\n")
            rows += 1
    return {"period": p, "n_max": cfg.n_max, "rows": rows,
            "files": [os.path.basename(path)]}, [path]


def _diag_betas(cfg):
    """At most 9 of the configured betas, spread evenly over the grid. From
    10 betas on the index step is at least 9/8, so no two indices round
    alike."""
    if len(cfg.betas) <= 9:
        return cfg.betas
    return cfg.betas[np.round(np.linspace(0, len(cfg.betas) - 1, 9))
                     .astype(int)]


def cmd_diagnose(cfg, args):
    _need_quotient(cfg, "diagnose")
    q = cfg.quotient
    betas = _diag_betas(cfg)
    kw = dict(u_tol=cfg.tol_bisection, tol=cfg.tol_eigen)
    curves = (free_energy_curve(cfg.psi, cfg.zeta, betas=betas, **kw),
              free_energy_curve(cfg.psi, cfg.zeta, betas=betas, quotient=q,
                                n_max=cfg.n_max, **kw))
    reports = {}
    notes = []
    reports["amenability"] = amenability_report(
        q, curves, cfg.psi, cfg.zeta,
        sigma_factor=cfg.sigma_factor).to_dict()
    reports["half_bound"] = half_bound_check(
        q, cfg.zeta, curves=curves, psi=cfg.psi, n_max=cfg.n_max,
        sigma_factor=cfg.sigma_factor, **kw).to_dict()
    if cfg.psi.is_inverse_symmetric():
        f_sym = cfg.psi
    else:
        f_sym = Potential.constant(cfg.d, 0.0)
        notes.append("psi is not inverse-symmetric; the pressure "
                     "inequality was checked at f = 0 instead")
    reports["pressure_inequality"] = pressure_inequality_check(
        q, f_sym, n_max=cfg.n_max, sigma_factor=cfg.sigma_factor,
        tol=cfg.tol_eigen, max_states=cfg.max_states).to_dict()
    # one fiber length and budget for the probe and the statistic: one
    # ball table
    n_fiber = max(cfg.n_max, 36, cfg.horizon)
    reports["divergence"] = divergence_probe(
        q, cfg.psi, n_max=n_fiber, max_states=cfg.max_states).to_dict()
    reps = []
    for k in range(cfg.d):
        g = q.letter_image(2 * k)
        if g != q.identity and g not in reps:
            reps.append(g)
    if not reps:
        reps = [q.identity]
    # each g is a letter image, so the one-letter word of g^-1 keeps every
    # denominator a_1(g^-1) e^-lam above e^-(700 + log(2d - 1))
    stat = symmetric_on_average_statistic(
        q, cfg.psi, reps, cfg.horizon, n_max=n_fiber,
        max_states=cfg.max_states)
    reports["symmetric_on_average"] = {
        "value": stat.value, "lam_hat": stat.lam_hat,
        "horizon": stat.horizon,
        "per_g": {str(g): r for g, r in stat.per_g.items()},
    }
    if cfg.psi.depth == 1 and float(np.ptp(cfg.psi.values)) > 0:
        f_gibbs = cfg.psi
        gibbs_note = "gibbs check uses psi"
    else:
        f_gibbs = random_inverse_symmetric(cfg.d, seed=cfg.seed)
        gibbs_note = (f"gibbs check uses a seeded random inverse-symmetric "
                      f"depth-1 potential (seed {cfg.seed})")
    notes.append(gibbs_note)
    _, rep = gibbs_verify(f_gibbs, max_len=cfg.gibbs_len,
                          tol=cfg.tol_eigen)
    reports["gibbs"] = rep.to_dict()
    verified = all("verdict" not in r or _reverify(r)
                   for r in reports.values())
    return {"reports": reports, "notes": notes,
            "self_verified": verified}, []


def _reverify(report_dict):
    rep = VerdictReport(report_dict["rule"], report_dict["quantities"],
                        report_dict["slacks"], report_dict["verdict"],
                        report_dict["notes"])
    return rep.verify()


_COMMANDS = {
    "pressure": (cmd_pressure, "full and restricted pressure of psi"),
    "delta": (cmd_delta, "critical exponents delta and delta_N"),
    "cogrowth": (cmd_cogrowth, "cogrowth eta = delta_N/delta at zeta = -1"),
    "spectrum": (cmd_spectrum,
                 "free-energy and multifractal spectrum curves (CSV)"),
    "dimension": (cmd_dimension, "Bowen dimension of the zeta geometry"),
    "induced-edges": (cmd_induced_edges,
                      "first-return words of the quotient (CSV)"),
    "partition": (cmd_partition, "fiber partition sums a_n (CSV)"),
    "diagnose": (cmd_diagnose, "all verdict reports (amenability, bounds, "
                               "divergence, symmetry, Gibbs)"),
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the INI run configuration")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--n-max", dest="n_max",
                        help="override [budgets] n_max")
    common.add_argument("--beta-range", dest="beta_range",
                        help="override the beta grid as lo:hi:step")
    common.add_argument("--tolerance",
                        help="override the root tolerance in u")
    parser = argparse.ArgumentParser(
        prog="freeshift",
        description="thermodynamic formalism on free-group subshifts: "
                    "pressure, dimension, and amenability diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _apply_overrides(cfg, args):
    if args.out is not None:
        cfg.out_dir = args.out
        cfg.overrides["out"] = args.out
    if args.n_max is not None:
        n_max = parse_number(args.n_max, int, "--n-max")
        if n_max < 1:
            raise ValidationError(f"--n-max must be >= 1, got {n_max}")
        cfg.n_max = n_max
        cfg.overrides["n_max"] = n_max
    if args.beta_range is not None:
        parts = args.beta_range.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"--beta-range expects lo:hi:step, got {args.beta_range!r}")
        cfg.betas = default_beta_grid(
            *(parse_number(x, float, "--beta-range") for x in parts))
        cfg.overrides["beta_range"] = args.beta_range
    if args.tolerance is not None:
        tolerance = parse_number(args.tolerance, float, "--tolerance")
        if tolerance <= 0:
            raise ValidationError("--tolerance must be positive")
        cfg.tol_bisection = tolerance
        cfg.overrides["tolerance"] = tolerance


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        handler, _ = _COMMANDS[args.command]
        result, files = handler(cfg, args)
        payload = {
            "command": args.command,
            "config_hash": cfg.config_hash,
            "overrides": cfg.overrides,
            "d": cfg.d,
            "quotient": cfg.describe_quotient(),
        }
        payload.update(result)
        print(json.dumps(payload, indent=2))
        return 0
    except FreeshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }}, indent=2))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
