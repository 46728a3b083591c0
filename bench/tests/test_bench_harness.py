"""Tests of the benchmark's own parts: span tracer, generated configs,
output checks and metric names. Run with the package on the path:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import freeshift  # noqa: E402
import freeshift.cli  # noqa: E402,F401  (installing a tracer loads it)
from freeshift import load_config  # noqa: E402


def _freeshift_bindings():
    """(owner, attribute) -> value for every freeshift module attribute and
    every attribute of a traced class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "freeshift" or name.startswith("freeshift."):
            for key, value in vars(module).items():
                out[(name, key)] = value
    for _, modname, cls, attr, _ in tracer.TARGETS:
        if cls:
            owner = getattr(sys.modules[f"freeshift.{modname}"], cls)
            out[(cls, attr)] = vars(owner)[attr]
    return out


def _spin(seconds):
    """Burn this thread's CPU for ``seconds``."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_nested_call_self_time_is_total_minus_children():
    t = tracer.Tracer("nested")
    inner = t.wrap("x.inner", lambda: _spin(0.01))

    def body():
        inner()
        _spin(0.01)
        time.sleep(0.01)            # wall time, not CPU time
        inner()

    t.wrap("x.outer", body)()
    outer = next(s for s in t.spans if s["name"] == "x.outer")
    inners = [s for s in t.spans if s["name"] == "x.inner"]
    assert [s["parent"] for s in inners] == [outer["span"]] * 2
    totals = tracer.span_totals(t.spans)
    assert totals["x.outer"]["s"] == pytest.approx(
        outer["end"] - outer["start"])
    assert totals["x.outer"]["self_s"] == pytest.approx(
        outer["cpu"] - sum(s["cpu"] for s in inners))
    assert 0.005 < totals["x.outer"]["self_s"] < 0.02
    assert totals["x.outer"]["s"] > outer["cpu"] + 0.005
    assert totals["x.inner"]["self_s"] == pytest.approx(
        sum(s["cpu"] for s in inners))


def test_pool_workers_keep_their_own_span_stacks():
    t = tracer.Tracer("pool")
    leaf = t.wrap("x.leaf", lambda: _spin(0.002))

    def work(_):
        leaf()
        return threading.get_ident()

    task = t.wrap("x.task", work)

    def fan_out():
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(task, range(16)))

    t.wrap("x.curve", fan_out)()
    by_id = {s["span"]: s for s in t.spans}
    assert len(t.spans) == 1 + 16 + 16
    for s in t.spans:
        if s["name"] == "x.task":
            assert s["parent"] is None          # opened on a worker thread
        if s["name"] == "x.leaf":
            parent = by_id[s["parent"]]
            assert parent["name"] == "x.task"
            assert parent["thread"] == s["thread"]
    tasks = [s for s in t.spans if s["name"] == "x.task"]
    leaves = [s for s in t.spans if s["name"] == "x.leaf"]
    totals = tracer.span_totals(t.spans)
    assert totals["x.task"]["self_s"] == pytest.approx(
        sum(s["cpu"] for s in tasks) - sum(s["cpu"] for s in leaves))


def test_install_rebinds_imported_names_and_uninstall_restores():
    before = _freeshift_bindings()
    t = tracer.Tracer("install")
    t.install()
    try:
        for module in ("cli", "spectra", "diagnostics"):
            bound = getattr(sys.modules[f"freeshift.{module}"],
                            "full_pressure")
            assert bound.traced_span == "pressure.full_pressure"
        assert freeshift.free_energy.traced_span == "spectra.free_energy"
        zeta = freeshift.GeometricPotential.from_ratios(2, [0.5] * 4)
        freeshift.delta(zeta)
    finally:
        t.uninstall()
    names = {s["name"] for s in t.spans}
    assert {"spectra.free_energy", "pressure.full_pressure",
            "potentials.combine", "pressure.TransferMatrix",
            "pressure.perron_eigen"} <= names
    after = _freeshift_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "traced_span") for v in after.values())


def test_traced_cli_run_shares_one_id_and_removes_wrappers(tmp_path,
                                                           capsys):
    before = _freeshift_bindings()
    cfg = tmp_path / "run.ini"
    cfg.write_text(workloads.config_text(
        2, "type = abelian\nrank = 2\nvectors = 1,0; 0,1",
        "constant = -1.0", 3, "out"))
    spans = tmp_path / "spans.jsonl"
    code = tracer.main(["--spans", str(spans), "--trace-id", "one", "--",
                        "pressure", "--config", str(cfg), "--n-max", "12"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["command"] == "pressure"
    recorded = tracer.load_spans([spans])
    assert {s["trace"] for s in recorded} == {"one"}
    metrics = tracer.layer_metrics(recorded)
    assert metrics["cli.main.self_s"] > 0
    assert metrics["pressure.fiber_partition_many.calls"] == 1
    assert metrics["pressure.fiber_partition_many.lengths"] == 12
    assert metrics["quotients.ball.calls"] == 1
    after = _freeshift_bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_load(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    configs = workloads.write_configs(workload, 17, str(tmp_path))
    assert set(configs) == {s.config for s in workload.steps}
    for path, out_dir in configs.values():
        cfg = load_config(path)
        assert cfg.seed == 17
        assert cfg.quotient is not None
        assert cfg.out_dir == out_dir
        assert len(cfg.betas) == 161


def test_s3_table_matches_the_generator_images():
    table, ident, images = workloads.s3_table()
    assert len(table) == 6 and ident == 0 and images == [2, 3]
    assert all(sorted(row) == list(range(6)) for row in table)


def test_checks_flag_wrong_answers():
    s3 = workloads.WORKLOADS["exact-spectrum"]
    ok, err = workloads.check_output(
        s3, "cogrowth", {"command": "cogrowth", "eta": 1.0}, None)
    assert ok == [] and err == 0.0
    bad, _ = workloads.check_output(
        s3, "cogrowth", {"command": "cogrowth", "eta": 0.99}, None)
    assert bad
    fk3 = workloads.WORKLOADS["freekill-diagnose"]
    diag = {"command": "diagnose", "self_verified": True,
            "reports": {"amenability": {"verdict": "inconclusive"}}}
    assert workloads.check_output(fk3, "diagnose", diag, None)[0]
    diag["self_verified"] = False
    assert workloads.check_output(fk3, "diagnose", diag, None)[0]


def test_every_emitted_metric_is_listed_in_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    step = workloads.WORKLOADS["exact-spectrum"].steps[0]
    passes = [[run.Outcome(step, 0.5, 0.6, False, False, 1e-12)]] * 2
    values, samples = run.end_to_end_metrics([0.3, 0.4], passes, 40.0)
    assert values.keys() == samples.keys() == listed.keys()
    assert {k: run.END_TO_END[k] for k in values} == listed
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = dict(tracer.PER_LAYER, **{"trace.overhead_s": "s"})
    assert tracer.layer_metrics([]).keys() | {"trace.overhead_s"} \
        == layered.keys()
    assert emitted == layered
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
