"""The freeshift benchmark.

    python3 bench/run.py --workload exact-spectrum --seed 1 --seconds 30 \\
        --trace 0

Run it from the root of a source checkout (the directory that holds
``src/freeshift`` and ``bench``); nothing needs installing. A workload is a
fixed sequence of ``freeshift`` CLI subcommands on configs generated from
the seed (see workloads.py). Load shape: a closed loop with one client;
each subcommand runs in a fresh interpreter with the CLI's default flags,
the next one starts when it has exited.

With ``--trace 0`` the run first times ``import freeshift.cli`` in fresh
interpreters (set-up), then runs whole passes of the sequence, at least
two, starting another only while it would end within ``--seconds``. Every
output is checked against exact references and against the first pass
byte for byte. It reports the median over passes of each timing.

Timings are CPU seconds (user + system) of the child processes, read from
getrusage; wall seconds are printed per subcommand but not reported as
metrics. On a shared 2-core host (2 vCPUs with steal time) the wall time
of the same workload spread by 25-38% across runs minutes apart, against
9-14% for its CPU time, and the bounds in BENCHMARK.json can hold only the
latter. A thread pool that contends for the interpreter lock still shows:
its spinning is CPU time.

With ``--trace 1`` it runs one plain pass and one pass in which every
subcommand runs under tracer.py, and reports the per-layer metrics of the
traced pass plus the traced pass's CPU time minus the plain one's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). The lines before it give each metric's
sample count and the run's stamp. A subcommand that exits nonzero counts
as failed; one whose output is wrong or differs between passes also makes
``correct`` false.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer
import workloads

END_TO_END = {
    "setup_s": "s",
    "total_cpu_s": "s",
    "spectrum_cpu_s": "s",
    "diagnose_cpu_s": "s",
    "partition_cpu_s": "s",
    "scalar_cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "ref_abs_err": "abs",
}
TIMED = {"spectrum_cpu_s": "spectrum", "diagnose_cpu_s": "diagnose",
         "partition_cpu_s": "partition", "scalar_cpu_s": "scalar"}
SETUP_SAMPLES = 7
DEADLINE_S = 165.0          # the run must exit within 180 s


@dataclass
class Outcome:
    step: workloads.Step
    wall: float
    cpu: float
    failed: bool
    wrong: bool             # output produced but incorrect or not repeatable
    ref_err: object         # float or None
    detail: str = ""


class Context:
    def __init__(self, root, workload, seed, work):
        self.root = root
        self.workload = workload
        self.work = work
        self.configs = workloads.write_configs(workload, seed, work)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.start = time.perf_counter()
        self.digests = {}       # step index -> digest of its first outputs

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def python(self, *args, timeout=60):
        """(completed process, wall seconds, CPU seconds) of one child.
        Children run one at a time, so the RUSAGE_CHILDREN delta is its own;
        one that times out is killed and reaped before this raises."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.work,
                              env=self.env, capture_output=True,
                              timeout=min(timeout, max(self.remaining(), 1)))
        wall = time.perf_counter() - begin
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return proc, wall, (after.ru_utime - before.ru_utime
                            + after.ru_stime - before.ru_stime)


def _digest(stdout, payload, out_dir):
    h = hashlib.sha256(stdout)
    files = list(payload.get("files", [])) if isinstance(payload, dict) \
        else []
    for sub in ("full", "restricted"):
        if isinstance(payload, dict) and isinstance(payload.get(sub), dict):
            files += payload[sub].get("files", [])
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_step(ctx, index, step, spans=None, trace_id=None):
    path, out_dir = ctx.configs[step.config]
    argv = [*step.argv, "--config", path]
    if spans is None:
        cmd = ["-m", "freeshift.cli", *argv]
    else:
        cmd = [os.path.join(ctx.root, "bench", "tracer.py"), "--spans",
               spans, "--trace-id", trace_id, "--", *argv]
    begin = time.perf_counter()
    try:
        proc, wall, cpu = ctx.python(*cmd, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        # killed: its wall time stands in for the CPU time it was cut off at
        wall = time.perf_counter() - begin
        return Outcome(step, wall, wall, True, False, None, "timed out")
    if proc.returncode != 0:
        last = proc.stderr.decode(errors="replace").strip().splitlines()
        return Outcome(step, wall, cpu, True, False, None,
                       f"exit {proc.returncode}: {last[-1] if last else ''}")
    try:
        payload = json.loads(proc.stdout)
        problems, ref_err = workloads.check_output(
            ctx.workload, step.argv[0], payload, out_dir)
        digest = _digest(proc.stdout, payload, out_dir)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(step, wall, cpu, True, True, None,
                       f"unreadable output: {exc!r}")
    if ctx.digests.setdefault(index, digest) != digest:
        problems.append("output differs from the first pass")
    return Outcome(step, wall, cpu, bool(problems), bool(problems), ref_err,
                   "; ".join(problems))


def run_pass(ctx, spans_dir=None, label=""):
    outcomes = []
    for index, step in enumerate(ctx.workload.steps):
        spans = trace_id = None
        if spans_dir is not None:
            spans = os.path.join(spans_dir, f"{index}.jsonl")
            trace_id = f"{label}{index}-{step.argv[0]}"
        outcomes.append(run_step(ctx, index, step, spans, trace_id))
    return outcomes


def setup_times(ctx):
    """CPU seconds of fresh-interpreter ``import freeshift.cli``; a first
    untimed import writes the bytecode caches, as any earlier use would
    have."""
    ctx.python("-c", "import freeshift.cli")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc, _, cpu = ctx.python("-c", "import freeshift.cli")
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        out.append(cpu)
    return out


def end_to_end_metrics(setup, passes, peak_rss_mb):
    """(metrics, sample counts) over the measured passes."""
    def pass_time(outcomes, kind=None):
        return sum(o.cpu for o in outcomes
                   if kind is None or o.step.metric == kind)

    values = {"setup_s": statistics.median(setup),
              "total_cpu_s": statistics.median(pass_time(p) for p in passes)}
    for name, kind in TIMED.items():
        values[name] = statistics.median(pass_time(p, kind) for p in passes)
    outcomes = [o for p in passes for o in p]
    refs = [o.ref_err for o in outcomes if o.ref_err is not None]
    values["peak_rss_mb"] = peak_rss_mb
    values["pass_rate"] = sum(not o.failed for o in outcomes) / len(outcomes)
    values["ref_abs_err"] = max([workloads.REF_FLOOR] + refs)
    samples = {name: len(passes) for name in END_TO_END}
    samples.update(setup_s=len(setup), peak_rss_mb=len(outcomes),
                   pass_rate=len(outcomes), ref_abs_err=len(refs))
    return values, samples


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "freeshift")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def stamp(ctx, args, numpy_version, samples):
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "git_commit": _git_commit(ctx.root),
            "src_sha256": _source_digest(ctx.root), "nproc": os.cpu_count(),
            "cli_threads": os.cpu_count(),   # the CLI's --threads default
            "python": platform.python_version(), "numpy": numpy_version,
            "samples": samples}


def measure(ctx, args):
    """(outcomes, metrics, sample counts, units) of one run."""
    if args.trace:
        plain = run_pass(ctx)
        spans_dir = os.path.join(ctx.work, "spans")
        os.makedirs(spans_dir)
        traced = run_pass(ctx, spans_dir, f"{args.workload}/{args.seed}/")
        files = [os.path.join(spans_dir, n) for n in os.listdir(spans_dir)]
        metrics = tracer.layer_metrics(tracer.load_spans(files))
        metrics["trace.overhead_s"] = sum(o.cpu for o in traced) \
            - sum(o.cpu for o in plain)
        units = dict(tracer.PER_LAYER, **{"trace.overhead_s": "s"})
        samples = {name: 1 for name in units}
        return plain + traced, metrics, samples, units
    setup = setup_times(ctx)
    passes = []
    begin = time.perf_counter()
    while ctx.remaining() > 0:
        passes.append(run_pass(ctx))
        elapsed = time.perf_counter() - begin
        # another pass only if it would end within --seconds
        if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics, samples = end_to_end_metrics(setup, passes, peak_kb / 1024)
    return [o for p in passes for o in p], metrics, samples, END_TO_END


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freeshift", "cli.py")):
        print("error: run from the root of a freeshift checkout "
              "(src/freeshift/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-",
                            dir=os.path.join(root, ".bench_work"))
    try:
        ctx = Context(root, workloads.WORKLOADS[args.workload], args.seed,
                      work)
        probe, _, _ = ctx.python("-c", "import freeshift, numpy; "
                                 "print(freeshift.__file__); "
                                 "print(numpy.__version__)")
        lines = probe.stdout.decode().split()
        if probe.returncode != 0 or len(lines) != 2 or not lines[0].startswith(
                os.path.join(root, "src", "freeshift") + os.sep):
            print("error: freeshift does not import from this checkout: "
                  + probe.stderr.decode(errors="replace"), file=sys.stderr)
            return 2
        outcomes, metrics, samples, units = measure(ctx, args)
        for o in outcomes:
            print(f"{o.wall:8.3f} s wall {o.cpu:8.3f} s cpu  "
                  f"{' '.join(o.step.argv)} [{o.step.config}]")
            if o.failed:
                print(f"FAILED {' '.join(o.step.argv)} [{o.step.config}]: "
                      f"{o.detail}")
        for name, value in metrics.items():
            print(f"{name:48s} {value:14.6g} {units[name]:12s} "
                  f"n={samples[name]}")
        print(json.dumps({"stamp": stamp(ctx, args, lines[1], samples)}))
        print(json.dumps({
            "correct": not any(o.wrong for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
