"""The benchmark's workloads: generated INI configs, the fixed sequence of
CLI subcommands run on them, and the reference checks on each output.

The seed is written into every config's ``[model] seed``, the program's
only stochastic input (the seeded random potential of the Gibbs check in
``diagnose``). Everything else about a workload is fixed.
"""

import csv
import math
import os
from dataclasses import dataclass

# the root-certificate tolerance of spectra.free_energy on exact scopes;
# reference errors below it are eigensolver noise and read as this floor
REF_FLOOR = 1e-9
RATIOS = {2: "0.5, 0.333333333333", 3: "0.5, 0.333333333333, 0.25"}
SCALARS = ("pressure", "delta", "cogrowth", "dimension", "induced-edges")


@dataclass(frozen=True)
class Step:
    metric: str             # "scalar", "spectrum", "diagnose" or "partition"
    argv: tuple             # subcommand and flags, --config is appended
    config: str             # config file name inside the work directory


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict           # file name -> (d, quotient lines, psi line)
    steps: tuple
    check: object           # (cmd, payload, out_dir) -> (problems, ref_err)


def _then(p, q):
    """The permutation that applies p first, then q."""
    return tuple(q[i] for i in p)


def s3_table():
    """S3 as sorted permutations of three points, with the indices of the
    transposition (1 0 2) and the 3-cycle (1 2 0) as generator images."""
    elems = [(0, 1, 2)]
    gens = [(1, 0, 2), (1, 2, 0)]
    for e in elems:
        for g in gens:
            if _then(e, g) not in elems:
                elems.append(_then(e, g))
    elems.sort()
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[_then(a, b)] for b in elems] for a in elems]
    return table, index[(0, 1, 2)], [index[g] for g in gens]


def _table_text():
    table, ident, _ = s3_table()
    rows = [" ".join(str(x) for x in row) for row in table]
    return f"{len(table)} {ident}\n" + "\n".join(rows) + "\n"


def config_text(d, quotient, psi, seed, out_dir):
    return (f"[model]\nd = {d}\nseed = {seed}\n\n"
            f"[quotient]\n{quotient}\n\n"
            f"[zeta]\nratios = {RATIOS[d]}\n\n"
            f"[psi]\n{psi}\n\n"
            f"[output]\ndirectory = {out_dir}\n")


def write_configs(workload, seed, work_dir):
    """Write the workload's configs (and the S3 table) into work_dir;
    returns config name -> (path, output directory)."""
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "s3.table"), "w") as fh:
        fh.write(_table_text())
    out = {}
    for name, (d, quotient, psi) in workload.configs.items():
        out_dir = "out_" + name.rsplit(".", 1)[0]
        path = os.path.join(work_dir, name)
        with open(path, "w") as fh:
            fh.write(config_text(d, quotient, psi, seed, out_dir))
        out[name] = (path, os.path.join(work_dir, out_dir))
    return out


def _t_column(path):
    with open(path, newline="") as fh:
        return [(float(r["beta"]), float(r["t"])) for r in csv.DictReader(fh)]


def curve_gap(out_dir):
    """max over beta of |t_N(beta) - t(beta)| from the spectrum CSVs."""
    full = _t_column(os.path.join(out_dir, "free_energy_full.csv"))
    quot = _t_column(os.path.join(out_dir, "free_energy_quotient.csv"))
    if [b for b, _ in full] != [b for b, _ in quot] or not full:
        raise ValueError("full and quotient curves have different grids")
    return max(abs(t - tn) for (_, t), (_, tn) in zip(full, quot))


def _bound(problems, label, err, tol):
    if not err <= tol:
        problems.append(f"{label} = {err:.3g} exceeds {tol:g}")
    return err


def _verdict(payload):
    return payload["reports"]["amenability"]["verdict"]


def check_s3(cmd, payload, out_dir):
    """S3 is finite, hence amenable: t_N = t exactly and eta = 1."""
    problems, err = [], None
    if cmd == "spectrum":
        err = _bound(problems, "max |t_N - t|", curve_gap(out_dir), REF_FLOOR)
    elif cmd == "cogrowth":
        err = _bound(problems, "|eta - 1|", abs(payload["eta"] - 1),
                     REF_FLOOR)
    elif cmd == "diagnose" and _verdict(payload) == "non-amenable detected":
        problems.append("amenability verdict is non-amenable on S3")
    return problems, err


def check_z2(cmd, payload, out_dir):
    """Z^2 is amenable: t_N = t, eta = 1 and lambda_N = log 3, up to the
    extrapolation tolerances of acceptance criteria 4 and 9."""
    problems, err = [], None
    if cmd == "spectrum":
        err = _bound(problems, "max |t_N - t|", curve_gap(out_dir), 0.03)
    elif cmd == "cogrowth":
        err = max(_bound(problems, "|eta - 1|", abs(payload["eta"] - 1),
                         0.02),
                  abs(payload["fiber_rate"] - math.log(3)))
    elif cmd == "diagnose" and _verdict(payload) == "non-amenable detected":
        problems.append("amenability verdict is non-amenable on Z^2")
    return problems, err


def check_fk3(cmd, payload, out_dir):
    """FK3 (F3 with g3 killed) is non-amenable; the full pressure of the
    constant psi = -1 is log 5 - 1 exactly."""
    problems, err = [], None
    if cmd == "pressure":
        err = _bound(problems, "|P - (log 5 - 1)|",
                     abs(payload["full"]["value"] - (math.log(5) - 1)),
                     REF_FLOOR)
    elif cmd == "diagnose" and _verdict(payload) != "non-amenable detected":
        problems.append(f"amenability verdict reads {_verdict(payload)!r}, "
                        f"expected 'non-amenable detected'")
    return problems, err


def check_output(workload, cmd, payload, out_dir):
    """Problems found in one subcommand's parsed stdout, and its error
    against an exact reference (None where the subcommand has none)."""
    if not isinstance(payload, dict) or payload.get("command") != cmd:
        return ["stdout is not the subcommand's JSON summary"], None
    if cmd == "diagnose" and payload.get("self_verified") is not True:
        return ["diagnose reports self_verified = false"], None
    return workload.check(cmd, payload, out_dir)


def _scalars(config):
    return tuple(Step("scalar", (cmd,), config) for cmd in SCALARS)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "exact-spectrum",
            {"s3.ini": (2, "type = finite\nfile = s3.table\nimages = 2, 3",
                        "constant = -1.0")},
            _scalars("s3.ini") + (
                Step("spectrum", ("spectrum",), "s3.ini"),
                Step("diagnose", ("diagnose",), "s3.ini"),
                Step("partition", ("partition",), "s3.ini")),
            check_s3),
        Workload(
            "abelian-fiber",
            {"z2.ini": (2, "type = abelian\nrank = 2\nvectors = 1,0; 0,1",
                        "constant = -1.0")},
            _scalars("z2.ini") + (
                Step("spectrum", ("spectrum", "--beta-range=-2:2:1"),
                     "z2.ini"),
                Step("diagnose", ("diagnose", "--beta-range=0:1:1",
                                  "--n-max", "24"), "z2.ini"),
                Step("partition", ("partition", "--n-max", "80"),
                     "z2.ini")),
            check_z2),
        Workload(
            "freekill-diagnose",
            {"fk3.ini": (3, "type = freekill\nkilled = 3", "constant = -1.0"),
             "fk3_wide.ini": (3, "type = freekill\nkilled = 3",
                              "letters = 10, -10, 0")},
            _scalars("fk3.ini") + (
                Step("spectrum", ("spectrum", "--beta-range=0:1:1"),
                     "fk3.ini"),
                Step("diagnose", ("diagnose", "--beta-range=-1:1:1"),
                     "fk3.ini"),
                Step("partition", ("partition", "--n-max", "80"),
                     "fk3_wide.ini")),
            check_fk3),
    ]
}
