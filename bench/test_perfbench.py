"""Fast checks of the benchmark itself, on tiny sizes of every workload."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "op_floor_ratio": "x", "op_s": "s", "solve_s": "s", "solve_us_per_iter": "us", "floor_ratio": "x",
    "reference_s": "s", "certify_s": "s", "compare_s": "s", "sweep_cells_per_s": "cells/s",
    "peak_rss_mb": "MB", "fail_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "core.matvec_per_iter": "1/iter", "core.matvec_s": "s", "core.matvec_gbps": "GB/s",
    "core.as_vector_per_iter": "1/iter", "core.as_vector_s": "s",
    "functions.loss_calls_per_iter": "1/iter", "functions.reg_calls_per_iter": "1/iter",
    "functions.conj_value_per_iter": "1/iter", "functions.oracle_s": "s",
    "algorithms.step_s": "s", "algorithms.run_self_s": "s", "algorithms.iters": "count",
    "certificates.geometry_s": "s", "certificates.check_bound_s": "s",
    "certificates.duality_gap_calls": "count", "equivalence.verify_s": "s",
    "harness.generate_s": "s", "harness.reference_gcg_s": "s", "harness.reference_other_s": "s",
    "harness.serialize_s": "s", "harness.serialize_bytes": "B",
    "harness.sweep_parallel_efficiency": "ratio", "tracing_overhead_s": "s",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench"))
    return {
        (name, trace): run.run_workload(name, 0, 0.0, trace, out_dir=out, tiny=True)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_every_metric_is_printed_with_its_unit(reports, capsys):
    for report in reports.values():
        run.print_report(report)
    text = capsys.readouterr().out
    for name, unit in {**END_TO_END_UNITS, **PER_LAYER_UNITS}.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", text, re.M), name


def test_result_line_matches_benchmark_json(reports):
    with open(run.SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for (name, trace), report in reports.items():
        result = json.loads(json.dumps(report["result"]))
        expected = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in expected], name
        for metric, value in result["metrics"].items():
            assert value["unit"] == units[metric]
        assert result["attempted"] >= 1
        assert result["correct"] and result["failed"] == 0, report["failures"]


def test_certify_reports_the_advertised_mixes_that_fail(reports):
    probes = reports[("certify", False)]["probes"]
    reasons = [" ".join(p["reasons"]) for p in probes]
    assert any("no smooth dual model for SquaredL2Box" in r for r in reasons)
    assert any(p["op"].startswith("certify gauge+entropy") and "reference uncertified" in " ".join(p["reasons"])
               for p in probes)


@pytest.mark.parametrize(
    "algorithm,schedule,expected",
    [("md", "two-over-t-plus-one", 2.0), ("gcg", "line-search", 2.0), ("gcg", "one-over-t", 3.0)],
)
def test_matvecs_per_iteration(algorithm, schedule, expected, tmp_path):
    cfg = workloads._config("lad", "squared_l2", 30, 8, 20, 0, algorithm=algorithm, schedule=schedule, max_iters=25)
    runner = workloads.Runner(workloads.Workload("one-run", [workloads.Op("solve", cfg)], 5), str(tmp_path), 1, Tracer())
    runner.setup()
    runner.run_round(traced=False)
    runner.run_round(traced=True)
    rows = {row[0]: row[1] for row in metrics.per_layer(runner, runner.tracer, 1, "unknown")}
    assert rows["core.matvec_per_iter"] == expected
    assert not runner.failures
