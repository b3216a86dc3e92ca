"""The benchmark's own checks. Run with:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection: it
forks a few hundred CLI calls and takes about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (puts nothing of co2run in sys.modules)

sys.path.insert(0, str(run.SRC))
import co2run.cli  # noqa: E402,F401

import layers  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402

SEED = 7
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced pass of every workload, plus its probes."""
    return {name: run.run_workload(name, SEED, 0, True) for name in workloads.WORKLOADS}


def _m(traced, workload, metric):
    return traced[workload][0]["metrics"][metric]["value"]


def test_every_verdict_is_right_and_nothing_fails(traced):
    for name, (result, record) in traced.items():
        assert result["correct"], (name, record["wrong"])
        assert result["failed"] == 0, name
        passes = record["passes"] + record["traced_passes"]
        assert result["attempted"] == record["ops_per_pass"] * passes == 2 * record["ops_per_pass"]


def test_metrics_match_benchmark_json(traced):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result, _ in traced.values():
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    result, _ = run.run_workload("synth", SEED, 0, False)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == BOUND["setup_s"] <= 0.25


def test_probes_fail_or_get_the_known_verdict(traced):
    probes = [p for _, record in traced.values() for p in record["probes"]]
    assert probes
    for p in probes:
        assert p["status"] in (ops.CRASH, ops.TIMEOUT) or p["wrong"] is None, p


def test_time_limit_is_twice_the_slowest_operation(traced):
    for name, (_, record) in traced.items():
        assert record["slowest_op_raw_s"] * 2 <= run.OP_TIME_LIMIT_S, name


def test_each_layer_is_counted_where_it_works(traced):
    synth = {k: _m(traced, "synth", k) for k in run.LAYER_UNITS}
    for metric in ("frontend.parse_s", "frontend.emit_s", "contracts.make_system_s",
                   "choreo.canonicalize_s", "choreo.project_s", "choreo.well_formed_s",
                   "synthesis.synthesize_calls", "cli.self_s"):
        assert synth[metric] > 0, metric
    for metric, value in synth.items():
        if metric.startswith(("runtime.", "analysis.")):
            assert value == 0, metric

    for metric in ("runtime.system_digest_calls", "runtime.apply_step_calls",
                   "runtime.enabled_steps_calls", "runtime.normalize_s",
                   "contracts.contract_step_calls", "contracts.enabled_moves_calls",
                   "analysis.replay_steps", "frontend.trace_load_s"):
        assert _m(traced, "execute", metric) > 0, metric
    # the scheduler's three calls cover most of the time inside run()
    assert _m(traced, "execute", "runtime.scheduler_share") > 0.5

    ops_per_pass = traced["broker"][1]["ops_per_pass"]
    assert _m(traced, "broker", "runtime.find_agreement_calls") > 0
    assert _m(traced, "broker", "synthesis.synthesize_calls") > 20 * ops_per_pass

    # honesty reaches enabled_steps only through analysis._steps, an
    # lru_cache built around the original function at import time
    for metric in ("analysis.check_honesty_s", "analysis.states_explored",
                   "analysis.ready_calls", "analysis.weak_ready_s",
                   "runtime.enabled_steps_calls", "runtime.apply_step_calls"):
        assert _m(traced, "honesty", metric) > 0, metric


def test_install_rebinds_imported_names_and_caches_and_restores():
    from co2run import analysis, runtime, synthesis

    originals = (runtime.synthesize, analysis._steps, analysis._after, runtime.enabled_steps)
    restore = layers.install(layers.Recorder())
    try:
        assert runtime.synthesize.__wrapped__ is originals[0]
        assert runtime.synthesize is synthesis.synthesize
        assert analysis._steps.__wrapped__ is runtime.enabled_steps
        assert analysis._after.__wrapped__ is runtime.apply_step
        assert analysis._steps.cache_info().maxsize == originals[1].cache_info().maxsize
    finally:
        restore()
    assert (runtime.synthesize, analysis._steps, analysis._after,
            runtime.enabled_steps) == originals


def test_crash_and_timeout_are_never_exit_codes(monkeypatch):
    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    def stall(argv):
        time.sleep(30)

    monkeypatch.setattr(co2run.cli, "main", crash)
    out = ops.run_isolated(["synth", "x.ctr"], 5)
    assert (out.status, out.code, out.seconds) == (ops.CRASH, None, 5)
    assert "RecursionError" in out.detail

    monkeypatch.setattr(co2run.cli, "main", stall)
    start = time.perf_counter()
    out = ops.run_isolated(["synth", "x.ctr"], 0.5)
    assert (out.status, out.code, out.seconds) == (ops.TIMEOUT, None, 0.5)
    assert time.perf_counter() - start < 5

    monkeypatch.setattr(co2run.cli, "main", lambda argv: 1)
    out = ops.run_isolated(["synth", "x.ctr"], 5)
    assert (out.status, out.code) == (ops.OK, 1)


def _op(name, family, work):
    w = workloads.build(name, SEED, work, run.SRC / "co2run" / "fixtures")
    return next(op for op in w.ops if op.family == family)


def _in_fresh_parent(fn):
    """Call fn() in a forked process whose co2run caches are empty, as in a
    benchmark parent that has imported co2run and run nothing."""
    def fresh():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "co2run":
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()
        return fn()
    result, _, _ = ops.call_in_child(fresh)
    return result


@pytest.mark.parametrize("name,family", [("honesty", "fixture_store_s12_B2"),
                                         ("broker", "no_agreement5")])
def test_no_cache_carries_over_between_operations(tmp_path, name, family):
    op = _op(name, family, tmp_path)

    def twice_isolated():
        """The operation twice through the benchmark: times at reference
        speed, and whether each verdict was right."""
        out = []
        for _ in range(2):
            speed = run.calibrate()
            outcome = ops.run_isolated(op.argv, run.OP_TIME_LIMIT_S)
            out.append((speed * outcome.seconds,
                        op.check(outcome.code, outcome.out, tmp_path) is None))
        return out

    def twice_in_process():
        """The control: two calls in one process, where the second can hit
        the module caches the first filled."""
        times = []
        with open(os.devnull, "w") as null:
            stdout, sys.stdout = sys.stdout, null
            try:
                for _ in range(2):
                    start = time.perf_counter()
                    co2run.cli.main(op.argv)
                    times.append(time.perf_counter() - start)
            finally:
                sys.stdout = stdout
        return times

    ratios = []
    for _ in range(5):
        (first, right1), (second, right2) = _in_fresh_parent(twice_isolated)
        assert right1 and right2
        ratios.append(second / first)
    assert abs(statistics.median(ratios) - 1) <= BOUND["op_p50_ms"], ratios
    cold, warm = _in_fresh_parent(twice_in_process)
    assert warm < cold / 2, (cold, warm)


def test_inputs_follow_the_seed(tmp_path):
    fixtures = run.SRC / "co2run" / "fixtures"

    def files(seed, sub):
        work = tmp_path / sub
        for name in workloads.WORKLOADS:
            (work / name).mkdir(parents=True)
            workloads.build(name, seed, work / name, fixtures)
        return {p.relative_to(work): p.read_text() for p in sorted(work.rglob("*")) if p.is_file()}

    first = files(SEED, "a")
    assert first == files(SEED, "b")
    assert first != files(SEED + 1, "c")


def test_percentiles():
    assert run.tail_percentile(50) == 80.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(12) == 50.0
    values = [float(x) for x in range(1, 51)]
    assert run.quantile(values, 0.5) == pytest.approx(statistics.median(values))
    assert 40 < run.quantile(values, 0.8) < 41
    assert run.quantile([7.0] * 9, 0.8) == pytest.approx(7.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
