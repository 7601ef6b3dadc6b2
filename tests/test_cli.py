import dataclasses
import json
import warnings

import pytest

from pdcg import Box, ExperimentConfig, LeastAbsoluteDeviation
from pdcg.cli import cli_main
from pdcg.harness import Experiment


def _write_config(cfg, path):
    """Write ``cfg`` as the JSON file ``--config`` reads."""
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture()
def config_path(tmp_path):
    cfg = ExperimentConfig(
        loss="logistic", regularizer="squared_l2", n=30, p=6, mu=1.0,
        seed=3, max_iters=50,
    )
    path = tmp_path / "cfg.json"
    _write_config(cfg, path)
    return str(path)


@pytest.fixture()
def certify_config_path(tmp_path, certify_config):
    path = tmp_path / "certify.json"
    _write_config(certify_config, path)
    return str(path)


def test_solve_writes_csv_and_exits_zero(tmp_path, config_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli_main(["solve", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho,primal,dual,gap,avg_primal,dual_subopt,bregman_ref"
    assert len(lines) == 51
    assert "solve:" in capsys.readouterr().out


def test_solve_byte_identical_reruns(tmp_path, config_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["solve", "--config", config_path, "--out", str(out1)]) == 0
    assert cli_main(["solve", "--config", config_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_json_format(tmp_path, config_path):
    out = tmp_path / "trace.json"
    code = cli_main(
        ["solve", "--config", config_path, "--out", str(out), "--format", "json", "--max-iters", "7"]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["records"]) == 7
    assert obj["header"]["geometry"]["r2_primal"] > 0


def test_solve_requires_output(config_path):
    assert cli_main(["solve", "--config", config_path]) == 2


def test_solve_unwritable_path(config_path):
    assert cli_main(["solve", "--config", config_path, "--out", "/nonexistent/x.csv"]) == 2


def test_compare_passes(config_path, capsys):
    code = cli_main(["compare", "--config", config_path, "--max-iters", "100"])
    assert code == 0
    assert "compare: PASS" in capsys.readouterr().out


def test_compare_runs_the_config_budget_unless_overridden(config_path, capsys):
    # the budget is the config's max_iters, as for every other command
    assert cli_main(["compare", "--config", config_path]) == 0
    assert " iterations=50 " in capsys.readouterr().out
    assert cli_main(["compare", "--config", config_path, "--max-iters", "7"]) == 0
    assert " iterations=7 " in capsys.readouterr().out
    # no private budget flag
    assert cli_main(["compare", "--config", config_path, "--iters", "7"]) == 2
    assert "compare:" not in capsys.readouterr().out


def test_compare_reports_the_library_tolerance(config_path, capsys):
    # compare has no tolerance flag: it checks at verify_equivalence's default
    assert cli_main(["compare", "--config", config_path, "--max-iters", "20"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" tolerance=1.0e-09")
    assert cli_main(["compare", "--config", config_path, "--tol", "1e-3"]) == 2


def test_compare_runs_every_iteration_whatever_gap_tol_and_algorithm(tmp_path, capsys):
    # a lockstep check has no stopping rule: solve stops at gap_tol, compare
    # runs the whole max_iters and reads neither gap_tol nor algorithm
    cfg = ExperimentConfig(loss="logistic", regularizer="squared_l2", n=30, p=6, seed=3, max_iters=500, gap_tol=1e-6)
    path = tmp_path / "cfg.json"
    _write_config(cfg, path)
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "trace.csv")]) == 0
    assert " iterations=3 termination=gap_tolerance " in capsys.readouterr().out
    lines = []
    for changes in ({}, {"gap_tol": 0.0, "algorithm": "md"}):
        _write_config(dataclasses.replace(cfg, **changes), path)
        assert cli_main(["compare", "--config", str(path)]) == 0
        lines.append(capsys.readouterr().out)
    assert " iterations=500 " in lines[0] and lines[0] == lines[1]


def test_compare_line_search(config_path, capsys):
    code = cli_main(
        ["compare", "--config", config_path, "--max-iters", "50", "--schedule", "line-search"]
    )
    assert code == 0


def test_certify_pass_and_report(tmp_path, certify_config_path, capsys):
    report = tmp_path / "report.json"
    code = cli_main(
        ["certify", "--config", certify_config_path, "--prop", "gcg-fixed-min-gap", "--out", str(report)]
    )
    assert code == 0
    assert "certify: PASS" in capsys.readouterr().out
    obj = json.loads(report.read_text())
    assert obj["passed"] is True
    assert obj["bound_id"] == "gcg-fixed-min-gap"
    assert len(obj["margins"]) == 300


def test_certify_empty_trace_writes_standard_json(tmp_path, certify_config_path):
    report = tmp_path / "report.json"
    argv = ["certify", "--config", certify_config_path, "--prop", "gcg-fixed-min-gap",
            "--max-iters", "0", "--out", str(report)]
    assert cli_main(argv) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(report.read_text(), parse_constant=reject)
    assert obj["iterations"] == 0
    assert obj["worst_margin"] is None


def test_certify_negative_reference_budget_exits_two(tmp_path, capsys):
    path = tmp_path / "budget.json"
    path.write_text('{"loss": "hinge", "n": 20, "p": 4, "reference_budget": -1}')
    assert cli_main(["certify", "--config", str(path), "--prop", "md-avg-subopt"]) == 2
    captured = capsys.readouterr()
    assert "reference_budget must be nonnegative" in captured.err
    assert "certify:" not in captured.out


NON_FINITE_CONFIGS = {
    # config text, solve flags, certify bound id
    "gauge-lambda-nan": ('"loss": "gauge", "gauge_lambda": NaN', [], "gcg-fixed-min-gap"),
    "gauge-omega0-inf": ('"loss": "gauge", "gauge_omega0": Infinity', [], "gcg-fixed-min-gap"),
    "mu-inf-l2": ('"loss": "lad", "mu": Infinity', [], "gcg-fixed-min-gap"),
    "mu-inf-box": ('"loss": "lad", "regularizer": "squared_l2_box", "mu": Infinity', [], "gcg-fixed-min-gap"),
    "mu-nan-box-ns-md": (
        '"loss": "lad", "regularizer": "squared_l2_box", "mu": NaN',
        ["--algorithm", "ns-md", "--schedule", "sqrt-decay"],
        "compact-averaged-gap",
    ),
}


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("case", list(NON_FINITE_CONFIGS))
def test_non_finite_parameters_exit_two(tmp_path, case, command, capsys):
    text, solve_flags, prop = NON_FINITE_CONFIGS[case]
    path = tmp_path / "cfg.json"
    path.write_text('{"n": 20, "p": 4, "max_iters": 5, ' + text + "}")
    if command == "solve":
        argv = ["solve", "--config", str(path), "--out", str(tmp_path / "t.csv"), *solve_flags]
    else:
        argv = ["certify", "--config", str(path), "--prop", prop]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err and "finite" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "t.csv").exists()


def test_certify_reference_based(certify_config_path, capsys):
    code = cli_main(
        ["certify", "--config", certify_config_path, "--prop", "md-distance", "--max-iters", "200"]
    )
    assert code == 0
    assert "certify: PASS" in capsys.readouterr().out


def test_certify_md_distance_needs_a_certified_reference(tmp_path, capsys):
    # gauge + entropy leaves its reference uncertified (gap 3.5e-3): a distance
    # to that point says nothing about x*, but a value measured against its
    # dual value still over-estimates the suboptimality
    cfg = ExperimentConfig(loss="gauge", regularizer="entropy", n=60, p=12, seed=3, max_iters=150)
    path, out = tmp_path / "c.json", tmp_path / "report.json"
    _write_config(cfg, path)
    code = cli_main(["certify", "--config", str(path), "--prop", "md-distance", "--out", str(out)])
    assert code == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: md-distance requires a certified reference; its distance to x* is unknown",
    ]
    # a bound that reads only the reference's dual value runs, and the notice follows its certify
    assert cli_main(["certify", "--config", str(path), "--prop", "md-avg-subopt"]) == 0
    captured = capsys.readouterr()
    assert "certify: PASS md-avg-subopt" in captured.out
    assert captured.err.splitlines() == ["certify: reference uncertified (gap=3.471e-03)"]


def test_certify_md_distance_refuses_the_reference_before_the_run(tmp_path, capsys, monkeypatch):
    # the same exit and stderr as above, without the 150 md iterations
    cfg = ExperimentConfig(loss="gauge", regularizer="entropy", n=60, p=12, seed=3, max_iters=150)
    path = tmp_path / "c.json"
    _write_config(cfg, path)
    monkeypatch.setattr(Experiment, "run", lambda self, reference=None: pytest.fail("certify ran the md run"))
    assert cli_main(["certify", "--config", str(path), "--prop", "md-distance"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: md-distance requires a certified reference; its distance to x* is unknown",
    ]


def test_certify_exits_two_when_an_oracle_stops_the_run(tmp_path, capsys):
    # the md iterate of lad + entropy at scale 2000 reaches the simplex
    # boundary, where the Bregman column to x* is undefined
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=30, p=6, scale=2000.0, seed=1, max_iters=50)
    path = tmp_path / "c.json"
    _write_config(cfg, path)
    assert cli_main(["certify", "--config", str(path), "--prop", "md-distance"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == ["error: Bregman divergence requires an interior second argument"]


_HINGE_1E200 = '"loss": "hinge", "scale": 1e200'
# what numpy says once per line while the exact vertex path of Box.r2 (n <= 20) overflows R^2 to inf
_EXACT_R2_OVERFLOW = ["overflow encountered in matmul", "invalid value encountered in add",
                      "overflow encountered in matmul"]
_R2_NOT_FINITE = "error: geometry constant r2_primal must be a finite float, got inf"
OVERFLOW_CASES = {
    # config text, command tail, numpy's RuntimeWarnings, the error line
    # above n = 20 Box.r2's norm bound squares to inf, and the constants refuse it; Python's **
    # raised an errno OverflowError there, whose "(34, 'Numerical result out of range')" was the message
    "hinge-scale-1e200-line-search": ('"n": 30, ' + _HINGE_1E200, ["solve", "--schedule", "line-search"], [],
                                      _R2_NOT_FINITE),
    "hinge-scale-1e200-certify": ('"n": 30, ' + _HINGE_1E200, ["certify", "--prop", "gcg-linesearch-min-gap"], [],
                                  _R2_NOT_FINITE),
    # L1Ball.r2 squares the ball's radius times the largest row norm, as Box.r2 does above n = 20
    "gauge-omega0-1e200-line-search": ('"n": 30, "loss": "gauge", "gauge_omega0": 1e200',
                                       ["solve", "--algorithm", "gcg", "--schedule", "line-search"], [],
                                       _R2_NOT_FINITE),
    # the planted lad point is drawn uniformly from the box, whose width overflows
    "lad-box-1e308": ('"n": 30, "loss": "lad", "regularizer": "squared_l2_box", '
                      '"box_lower": -1e308, "box_upper": 1e308',
                      ["solve"], [], "error: high - low range exceeds valid bounds"),
    # at n <= 20 the constants refuse the inf R^2: a line search on it froze at rho = 0 and exited 0,
    # a JSON header wrote Infinity, and certify ran its whole run before refusing it
    "hinge-n20-scale-1e200-line-search": ('"n": 20, "max_iters": 20, ' + _HINGE_1E200,
                                          ["solve", "--schedule", "line-search"], _EXACT_R2_OVERFLOW, _R2_NOT_FINITE),
    "hinge-n20-scale-1e200-json": ('"n": 20, "max_iters": 20, ' + _HINGE_1E200, ["solve", "--format", "json"],
                                   _EXACT_R2_OVERFLOW, _R2_NOT_FINITE),
    "hinge-n20-scale-1e200-certify": ('"n": 20, "max_iters": 20, ' + _HINGE_1E200,
                                      ["certify", "--prop", "gcg-fixed-min-gap"], _EXACT_R2_OVERFLOW, _R2_NOT_FINITE),
    # a bound that needs a reference ran the whole Newton polish before refusing the inf R^2
    "lad-n20-scale-1e200-certify": ('"n": 20, "loss": "lad", "scale": 1e200', ["certify", "--prop", "md-avg-subopt"],
                                    _EXACT_R2_OVERFLOW, _R2_NOT_FINITE),
    # the box's widths overflow delta^2 to inf, which sqrt-decay reads when it is built
    "hinge-box-1e308-compact": ('"n": 30, "max_iters": 50, "loss": "hinge", "regularizer": "squared_l2_box", '
                                '"box_lower": -1e308, "box_upper": 1e308, "scale": 0.6667',
                                ["certify", "--prop", "compact-averaged-gap"], ["overflow encountered in subtract"],
                                "error: geometry constant delta2 must be a finite float, got inf"),
}


@pytest.mark.parametrize("case", list(OVERFLOW_CASES))
def test_a_float64_overflow_in_set_up_exits_two(tmp_path, case, capsys, monkeypatch):
    # every case is refused before the reference solve and the first step of its run
    text, command, overflow_warnings, message = OVERFLOW_CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text('{"p": 6, "seed": 1, ' + text + "}")
    out = tmp_path / "t.csv"
    argv = [command[0], "--config", str(path), *command[1:], *(["--out", str(out)] if command[0] == "solve" else [])]
    monkeypatch.setattr(Experiment, "run", lambda self, reference=None: pytest.fail("the run started"))
    monkeypatch.setattr("pdcg.harness.reference_solution",
                        lambda *args, **kwargs: pytest.fail("the reference solve started"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # once per line, as the command line prints them
        assert cli_main(argv) == 2
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, m) for m in overflow_warnings]
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_line_search_on_a_subnormal_r2_steps_to_a_zero_gap(tmp_path, fmt, capsys):
    # mu / R^2 overflows to inf here; rho = inf * 0 at the zero gap of t = 2 was NaN,
    # and its ValueError escaped cli_main, which exited 1 with a traceback
    path = tmp_path / "cfg.json"
    path.write_text('{"loss": "hinge", "regularizer": "squared_l2", "n": 21, "p": 8, "seed": 66, '
                    '"mu": 1.3e6, "scale": 1.7e-157}')
    out = tmp_path / f"t.{fmt}"
    argv = ["solve", "--config", str(path), "--algorithm", "gcg", "--schedule", "line-search", "--format", fmt]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in out.read_text().lower()


def test_solve_exits_two_on_a_gap_inconsistency(tmp_path, capsys, monkeypatch):
    # a conjugate off by 1 makes the duality gap negative beyond round-off
    conj_value = LeastAbsoluteDeviation._conj_value
    monkeypatch.setattr(LeastAbsoluteDeviation, "_conj_value", lambda self, y: conj_value(self, y) - 1.0)
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, seed=1, max_iters=50)
    path = tmp_path / "c.json"
    _write_config(cfg, path)
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("error: duality gap -") and line.endswith("; oracle inconsistency")


def test_certify_exit_one_on_failed_bound(tmp_path, capsys):
    # unscaled instance whose first-pair gap exceeds the t=1 bound
    cfg = ExperimentConfig(loss="hinge", regularizer="squared_l2", n=30, p=6, seed=3, max_iters=50)
    path = tmp_path / "c.json"
    _write_config(cfg, path)
    code = cli_main(["certify", "--config", path.as_posix(), "--prop", "gcg-linesearch-min-gap"])
    assert code == 1
    assert "certify: FAIL" in capsys.readouterr().out


def test_certify_compact_domain_bound(tmp_path, capsys):
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=20, p=10, mu=1.0, scale=1.0,
        seed=0, max_iters=500,
    )
    path = tmp_path / "compact.json"
    _write_config(cfg, path)
    code = cli_main(["certify", "--config", str(path), "--prop", "compact-averaged-gap"])
    assert code == 0
    assert "certify: PASS" in capsys.readouterr().out


def test_sweep_writes_cells(tmp_path, config_path):
    out_dir = tmp_path / "cells"
    code = cli_main(
        [
            "sweep", "--config", config_path, "--out-dir", str(out_dir),
            "--schedules", "two-over-t-plus-one,one-over-t", "--seeds", "0:3",
            "--workers", "1",
        ]
    )
    assert code == 0
    assert len(list(out_dir.iterdir())) == 6


def test_sweep_defaults_to_the_schedules_gcg_pairs_with(tmp_path, config_path):
    out_dir = tmp_path / "cells"
    assert cli_main(["sweep", "--config", config_path, "--out-dir", str(out_dir), "--seeds", "0", "--workers", "1"]) == 0
    names = ("two-over-t-plus-one", "one-over-t", "line-search")
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(f"trace_{name}_0.csv" for name in names)


def test_unknown_flag_exits_two(config_path):
    assert cli_main(["solve", "--config", config_path, "--frobnicate"]) == 2


def test_unknown_command_exits_two():
    assert cli_main(["transmogrify"]) == 2


def test_missing_config_exits_two():
    assert cli_main(["solve", "--config", "/no/such/file.json", "--out", "/tmp/x.csv"]) == 2


def test_bad_config_value_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"loss": "huber"}')
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2


def test_version_flag():
    assert cli_main(["--version"]) == 0


def test_mistyped_config_value_exits_two(tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text('{"n": "30"}')
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "config key 'n' must be int" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["x", "3:1"])
def test_sweep_bad_or_empty_seeds_exit_two(tmp_path, config_path, seeds, capsys):
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, "--out-dir", str(out_dir), "--seeds", seeds, "--workers", "1"]
    assert cli_main(argv) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [["--max-iters", "-5"]], ids=["max-iters"])
def test_compare_negative_arguments_exit_two(config_path, flags, capsys):
    assert cli_main(["compare", "--config", config_path, *flags]) == 2
    captured = capsys.readouterr()
    assert "must be nonnegative" in captured.err
    assert "compare:" not in captured.out


def test_sweep_empty_schedules_exit_two(tmp_path, config_path, capsys):
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, "--out-dir", str(out_dir), "--schedules", ",", "--workers", "1"]
    assert cli_main(argv) == 2
    assert "--schedules" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compare_unpaired_schedule_exits_two(tmp_path, capsys):
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=5, seed=4, max_iters=20)
    path = tmp_path / "entropy.json"
    _write_config(cfg, path)
    assert cli_main(["compare", "--config", str(path), "--schedule", "sqrt-decay"]) == 2
    captured = capsys.readouterr()
    assert "sqrt-decay pairs with the compact-domain recursion only" in captured.err
    assert "compare:" not in captured.out


def test_sweep_unknown_schedule_leaves_no_directory(tmp_path, config_path, capsys):
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, "--out-dir", str(out_dir), "--schedules", "bogus", "--workers", "1"]
    assert cli_main(argv) == 2
    assert "bogus" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_sweep_nonpositive_workers_exit_two(tmp_path, config_path, workers, capsys):
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, "--out-dir", str(out_dir), "--workers", workers]
    assert cli_main(argv) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_solve_nan_gap_tol_exits_two(tmp_path, config_path, via, capsys):
    out = tmp_path / "t.csv"
    argv = ["solve", "--config", config_path, "--gap-tol", "nan"]
    if via == "config":
        path = tmp_path / "nan.json"
        path.write_text('{"n": 20, "p": 4, "gap_tol": NaN}')
        argv = ["solve", "--config", str(path)]
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert "gap_tol must not be NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["solve", "--algorithm", "ns-md", "--schedule", "sqrt-decay"], ["certify", "--prop", "compact-averaged-gap"]],
)
def test_sqrt_decay_on_unbounded_domain_exits_two(tmp_path, config_path, argv, capsys):
    out = tmp_path / "t.csv"
    assert cli_main([argv[0], "--config", config_path, *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "delta^2 is defined for compact domains only" in captured.err
    assert captured.out == ""
    assert not out.exists()


R2_CALLS = {
    # command and flags -> the domain calls that compute R^2: one for a command that reads it
    "certify-linesearch": (["certify", "--prop", "gcg-linesearch-dual-subopt"], 1),
    "certify-compact": (["certify", "--prop", "compact-averaged-gap"], 1),
    "certify-fixed": (["certify", "--prop", "gcg-fixed-min-gap"], 1),
    "solve-linesearch-csv": (["solve", "--schedule", "line-search"], 1),
    "solve-linesearch-json": (["solve", "--schedule", "line-search", "--format", "json"], 1),
    "solve-sqrt-json": (["solve", "--algorithm", "ns-md", "--schedule", "sqrt-decay", "--format", "json"], 1),
    "solve-fixed-csv": (["solve"], 0),
}


@pytest.mark.parametrize("case", list(R2_CALLS))
def test_each_r2_is_computed_once_per_command(tmp_path, monkeypatch, case):
    # n = 20 keeps the lad dual box on exact vertex enumeration
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=5, seed=1, scale=1.0, max_iters=20)
    path = tmp_path / "lad.json"
    _write_config(cfg, path)
    calls = []
    box_r2 = Box.r2

    def counted(self, op):
        calls.append(op)
        return box_r2(self, op)

    monkeypatch.setattr(Box, "r2", counted)
    argv, expected = R2_CALLS[case]
    out = ["--out", str(tmp_path / "out")]
    assert cli_main([argv[0], "--config", str(path), *argv[1:], *out]) in (0, 1)
    assert len(calls) == expected


NEGATIVE_SEEDS = {
    # case -> command, flags, output flag; "config" puts seed -1 in the config file
    "solve-flag": (["solve", "--seed", "-2"], "--out"),
    "sweep-seeds": (["sweep", "--seeds=-2:0", "--workers", "1"], "--out-dir"),
    "config": (["solve"], "--out"),
}


@pytest.mark.parametrize("case", list(NEGATIVE_SEEDS))
def test_negative_seed_exits_two(tmp_path, config_path, case, capsys):
    if case == "config":
        config_path = str(tmp_path / "negative.json")
        # an ExperimentConfig with seed -1 cannot be built, so the file is written directly
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"n": 20, "p": 4, "seed": -1}, fh)
    argv, out_flag = NEGATIVE_SEEDS[case]
    out = tmp_path / "out"
    assert cli_main([argv[0], "--config", config_path, *argv[1:], out_flag, str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_config_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"loss": "lad\xff"}')
    out = tmp_path / "x.csv"
    assert cli_main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert "invalid config JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--seed=5"]], ids=["spaced", "joined"])
def test_sweep_rejects_seed_flag(tmp_path, config_path, flag, capsys):
    # each cell's seed comes from --seeds; --seed is not an abbreviation of it
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, *flag, "--seeds", "0", "--out-dir", str(out_dir), "--workers", "1"]
    assert cli_main(argv) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["solve"], ["certify", "--prop", "compact-averaged-gap"]])
def test_zero_modulus_exits_two(tmp_path, argv, capsys):
    path = tmp_path / "flat.json"
    path.write_text('{"loss": "lad", "regularizer": "squared_l2_box", "algorithm": "ns-md", '
                    '"mu": 0, "n": 20, "p": 4, "max_iters": 5}')
    out = tmp_path / "out"
    assert cli_main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    assert "modulus mu must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


SWEEP_REJECTIONS = {
    # case -> flags, message; each is rejected before the output directory exists
    "repeated-seeds": (["--seeds", "1,1", "--schedules", "one-over-t"], "appear twice"),
    "repeated-schedules": (["--seeds", "1", "--schedules", "one-over-t,one-over-t"], "appear twice"),
    "unpaired-schedule": (
        ["--seeds", "0:2", "--schedules", "two-over-t-plus-one,sqrt-decay"],
        "delta^2 is defined for compact domains only",
    ),
}


@pytest.mark.parametrize("case", list(SWEEP_REJECTIONS))
def test_sweep_rejects_before_creating_directory(tmp_path, config_path, case, capsys):
    flags, message = SWEEP_REJECTIONS[case]
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--config", config_path, *flags, "--out-dir", str(out_dir), "--workers", "1"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_only_md_distance_reads_the_bregman_column(tmp_path, capsys):
    # at this scale x_t reaches a face of the simplex, where D(x*, x_t) is undefined;
    # the other reference-backed ids never read that column and reach a verdict
    path = tmp_path / "face.json"
    _write_config(ExperimentConfig(loss="hinge", regularizer="entropy", n=30, p=6, scale=2000.0, seed=1), path)
    props = ("md-avg-subopt", "md-best-subopt", "gcg-fixed-dual-subopt", "gcg-linesearch-dual-subopt", "md-distance")
    codes = [cli_main(["certify", "--config", str(path), "--prop", prop]) for prop in props]
    captured = capsys.readouterr()
    assert codes == [0, 0, 0, 0, 2]
    assert [line.split()[2] for line in captured.out.splitlines()] == list(props[:4])
    assert captured.err == "error: Bregman divergence requires an interior second argument\n"
