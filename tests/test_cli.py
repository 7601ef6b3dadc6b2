import json

import pytest

from pdcg import Box, ExperimentConfig
from pdcg.cli import cli_main


@pytest.fixture()
def config_path(tmp_path):
    cfg = ExperimentConfig(
        loss="logistic", regularizer="squared_l2", n=30, p=6, mu=1.0,
        seed=3, max_iters=50,
    )
    path = tmp_path / "cfg.json"
    cfg.dump(str(path))
    return str(path)


@pytest.fixture()
def certify_config_path(tmp_path):
    # instance from the certified-bound regime (scaled loss)
    cfg = ExperimentConfig(
        loss="hinge", regularizer="squared_l2", n=60, p=12, mu=1.0,
        seed=11, scale=20.0 / 60, max_iters=300,
    )
    path = tmp_path / "certify.json"
    cfg.dump(str(path))
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
    code = cli_main(["compare", "--config", config_path, "--iters", "100", "--tol", "1e-9"])
    assert code == 0
    assert "compare: PASS" in capsys.readouterr().out


def test_compare_line_search(config_path, capsys):
    code = cli_main(
        ["compare", "--config", config_path, "--iters", "50", "--schedule", "line-search"]
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


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_certify_bad_reference_tolerance_exits_two(certify_config_path, tol, capsys):
    argv = ["certify", "--config", certify_config_path, "--prop", "md-avg-subopt", "--reference-tol", tol]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "reference tolerance must be >= 0" in captured.err
    assert "certify:" not in captured.out


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


def test_certify_exit_one_on_failed_bound(tmp_path, capsys):
    # unscaled instance whose first-pair gap exceeds the t=1 bound
    cfg = ExperimentConfig(loss="hinge", regularizer="squared_l2", n=30, p=6, seed=3, max_iters=50)
    path = tmp_path / "c.json"
    cfg.dump(str(path))
    code = cli_main(["certify", "--config", path.as_posix(), "--prop", "gcg-linesearch-min-gap"])
    assert code == 1
    assert "certify: FAIL" in capsys.readouterr().out


def test_certify_compact_domain_bound(tmp_path, capsys):
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=20, p=10, mu=1.0, scale=1.0,
        seed=0, max_iters=500,
    )
    path = tmp_path / "compact.json"
    cfg.dump(str(path))
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


@pytest.mark.parametrize("flags", [["--iters", "-5"], ["--tol", "-1"]], ids=["iters", "tol"])
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
    cfg.dump(str(path))
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
    # command and flags -> the R^2 variants the domain computes, each at most once
    "certify-linesearch": (["certify", "--prop", "gcg-linesearch-dual-subopt"], ["diameter"]),
    "certify-compact": (["certify", "--prop", "compact-averaged-gap"], ["origin"]),
    "solve-linesearch-csv": (["solve", "--schedule", "line-search"], ["diameter"]),
    "solve-linesearch-json": (["solve", "--schedule", "line-search", "--format", "json"], ["diameter", "origin"]),
    "solve-sqrt-json": (
        ["solve", "--algorithm", "ns-md", "--schedule", "sqrt-decay", "--format", "json"], ["diameter", "origin"]
    ),
    "solve-fixed-csv": (["solve"], []),
}


@pytest.mark.parametrize("case", list(R2_CALLS))
def test_each_r2_is_computed_once_per_command(tmp_path, monkeypatch, case):
    # n = 20 keeps the lad dual box on exact vertex enumeration
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=5, seed=1, scale=1.0, max_iters=20)
    path = tmp_path / "lad.json"
    cfg.dump(str(path))
    calls = []
    box_r2 = Box.r2

    def counted(self, op, which):
        calls.append(which)
        return box_r2(self, op, which)

    monkeypatch.setattr(Box, "r2", counted)
    argv, expected = R2_CALLS[case]
    out = ["--out", str(tmp_path / "out")]
    assert cli_main([argv[0], "--config", str(path), *argv[1:], *out]) in (0, 1)
    assert sorted(calls) == expected


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
        ExperimentConfig(n=20, p=4, seed=-1).dump(config_path)
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
