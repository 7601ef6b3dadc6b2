"""Byte-identity grid: every CLI output on a fixed config grid, hashed.

A refactor that must not change any output runs this before and after
the change and compares the two digests::

    python3 tools/output_grid.py --out before.json      # at the old commit
    python3 tools/output_grid.py --out after.json       # at the new one
    python3 tools/output_grid.py --diff before.json after.json

The grid calls ``cli_main`` in-process for 4 losses x 3 regularizers x
scale {default, 20/n} (n=60, p=12, seed 3, 150 iterations):

* ``solve`` for md, gcg and ns-md under each of the 4 schedules (the
  pairs ``run`` rejects included), written as CSV and as JSON;
* ``compare`` under 2/(t+1), 1/t and line search;
* ``certify --out`` for each of the 8 bound ids.

That is 840 outputs.  At n=60 every dual box takes the norm bound on
R^2, so a small slice at n=20, p=10, scale 20/n (the largest box whose
R^2 is exact) adds, for the same 12 loss/regularizer mixes, ``certify``
for each bound id and JSON ``solve`` under line search (gcg) and
sqrt-decay (ns-md), and one JSON ``sweep`` of lad + squared_l2 over
three schedules and two seeds on 2 workers: 961 outputs.  Eight
malformed inputs follow, each of which must exit 2 and write nothing:
``solve --seed -2``, ``sweep --seeds=-2:0``, ``sweep --seed`` (a flag
``sweep`` does not take), ``"seed": -1`` in the config, ``"mu": 0`` on
a box under ns-md, ``sweep --seeds 1,1`` (two cells, one file), a
``sweep`` whose ``sqrt-decay`` cells ``solve`` rejects on squared_l2,
and a config file that is not UTF-8.  That makes 969 outputs in all.

For each one the manifest records stdout, stderr, the exit code, an
escaped exception and the sha256 of the written file (for the sweep, of
every file in its output directory).  Every output goes to one fixed
path, which the JSON config echo and the ``solve`` summary line hold;
the ``--workdir`` prefix is replaced by ``<workdir>`` in all four texts
and in the file bytes before anything is recorded, so the digest
depends on the code and the BLAS build only.  The run takes about half
a minute and is not part of the test suite.

Next to the digest the tool prints the line count of ``src/`` (the
newlines in its ``.py`` files, as ``wc -l`` counts them), which the
written manifest keeps under ``src_lines``; the digest and ``--diff``
cover the outputs only, so the count moves no digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# argparse wraps its usage text to the terminal width; pin it for the digest
os.environ["COLUMNS"] = "80"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from pdcg.certificates import BOUND_IDS  # noqa: E402
from pdcg.cli import cli_main  # noqa: E402
from pdcg.harness import LOSS_KINDS, REGULARIZER_KINDS, SCHEDULE_NAMES  # noqa: E402

N, P, SEED, ITERS = 60, 12, 3, 150
EXACT_N, EXACT_P = 20, 10
ALGORITHMS = ("md", "gcg", "ns-md")
COMPARE_SCHEDULES = ("two-over-t-plus-one", "one-over-t", "line-search")


PLACEHOLDER = "<workdir>"
SRC_LINES = "src_lines"


def src_lines() -> int:
    """Newlines in the ``.py`` files under ``src/``."""
    total = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += fh.read().count("\n")
    return total


def _sha256(path: str, workdir: str):
    if os.path.isdir(path):
        return {name: _sha256(os.path.join(path, name), workdir) for name in sorted(os.listdir(path))}
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data.replace(workdir.encode(), PLACEHOLDER.encode())).hexdigest()


def _call(argv: list, out_path: str, workdir: str) -> dict:
    """One in-process CLI call and everything it leaves behind, workdir masked."""
    if os.path.isdir(out_path):
        shutil.rmtree(out_path)
    elif os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, exception = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except Exception as exc:  # recorded, not raised: a traceback is an output too
            exception = f"{type(exc).__name__}: {exc}"
    def mask(text):
        return None if text is None else text.replace(workdir, PLACEHOLDER)

    return {
        "stdout": mask(stdout.getvalue()),
        "stderr": mask(stderr.getvalue()),
        "code": code,
        "exception": mask(exception),
        "sha256": _sha256(out_path, workdir),
    }


def grid_calls(workdir: str):
    """(key, argv) for every output of the grid, in a fixed order."""
    cfg_path = os.path.join(workdir, "config.json")
    out_path = os.path.join(workdir, "out")
    for loss in LOSS_KINDS:
        for reg in REGULARIZER_KINDS:
            for scale in (None, 20.0 / N):
                config = {"loss": loss, "regularizer": reg, "n": N, "p": P, "seed": SEED,
                          "scale": scale, "max_iters": ITERS}
                prefix = f"{loss}/{reg}/scale={scale}"
                setup = (cfg_path, config)
                for algo in ALGORITHMS:
                    for sched in SCHEDULE_NAMES:
                        for fmt in ("csv", "json"):
                            yield setup, f"{prefix}/solve/{algo}/{sched}/{fmt}", [
                                "solve", "--config", cfg_path, "--algorithm", algo, "--schedule", sched,
                                "--max-iters", str(ITERS), "--out", out_path, "--format", fmt]
                for sched in COMPARE_SCHEDULES:
                    yield setup, f"{prefix}/compare/{sched}", [
                        "compare", "--config", cfg_path, "--max-iters", str(ITERS), "--schedule", sched]
                for prop in BOUND_IDS:
                    yield setup, f"{prefix}/certify/{prop}", [
                        "certify", "--config", cfg_path, "--prop", prop, "--max-iters", str(ITERS),
                        "--out", out_path]
    for loss in LOSS_KINDS:
        for reg in REGULARIZER_KINDS:
            config = {"loss": loss, "regularizer": reg, "n": EXACT_N, "p": EXACT_P, "seed": SEED,
                      "scale": 20.0 / EXACT_N, "max_iters": ITERS}
            prefix = f"exact/{loss}/{reg}"
            setup = (cfg_path, config)
            for prop in BOUND_IDS:
                yield setup, f"{prefix}/certify/{prop}", [
                    "certify", "--config", cfg_path, "--prop", prop, "--out", out_path]
            for algo, sched in (("gcg", "line-search"), ("ns-md", "sqrt-decay")):
                yield setup, f"{prefix}/solve/{algo}/{sched}/json", [
                    "solve", "--config", cfg_path, "--algorithm", algo, "--schedule", sched,
                    "--out", out_path, "--format", "json"]
    config = {"loss": "lad", "regularizer": "squared_l2", "n": EXACT_N, "p": EXACT_P, "seed": SEED,
              "scale": 20.0 / EXACT_N, "max_iters": ITERS, "output_format": "json"}
    yield (cfg_path, config), "exact/sweep", [
        "sweep", "--config", cfg_path, "--schedules", ",".join(COMPARE_SCHEDULES), "--seeds", "0:2",
        "--out-dir", out_path, "--workers", "2"]
    config = {"loss": "lad", "regularizer": "squared_l2", "n": EXACT_N, "p": EXACT_P, "seed": SEED, "max_iters": 5}
    setup = (cfg_path, config)
    yield setup, "malformed/solve-negative-seed", ["solve", "--config", cfg_path, "--seed", "-2", "--out", out_path]
    yield setup, "malformed/sweep-negative-seeds", [
        "sweep", "--config", cfg_path, "--seeds=-2:0", "--out-dir", out_path, "--workers", "1"]
    yield setup, "malformed/sweep-seed-flag", [
        "sweep", "--config", cfg_path, "--seed", "1", "--seeds", "0", "--schedules", "one-over-t",
        "--out-dir", out_path, "--workers", "1"]
    yield (cfg_path, dict(config, seed=-1)), "malformed/config-negative-seed", [
        "solve", "--config", cfg_path, "--out", out_path]
    zero_mu = dict(config, regularizer="squared_l2_box", algorithm="ns-md", mu=0)
    yield (cfg_path, zero_mu), "malformed/config-zero-mu", ["solve", "--config", cfg_path, "--out", out_path]
    yield setup, "malformed/sweep-repeated-seeds", [
        "sweep", "--config", cfg_path, "--seeds", "1,1", "--schedules", "one-over-t",
        "--out-dir", out_path, "--workers", "1"]
    yield setup, "malformed/sweep-unpaired-schedule", [
        "sweep", "--config", cfg_path, "--seeds", "0", "--schedules", "two-over-t-plus-one,sqrt-decay",
        "--out-dir", out_path, "--workers", "1"]
    # raw bytes: the config file itself is malformed
    yield (cfg_path, b'{"seed": 3\xff}'), "malformed/config-not-utf8", [
        "solve", "--config", cfg_path, "--out", out_path]


def build_manifest(workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    out_path = os.path.join(workdir, "out")
    manifest = {}
    written = None
    for (cfg_path, config), key, argv in grid_calls(workdir):
        if config != written:
            with open(cfg_path, "wb") as fh:
                fh.write(config if isinstance(config, bytes) else json.dumps(config).encode())
            written = config
        manifest[key] = _call(argv, out_path, workdir)
    return manifest


def digest(manifest: dict) -> str:
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def load_outputs(path: str) -> dict:
    """A written manifest's output entries, without its line count."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest.pop(SRC_LINES, None)
    return manifest


def diff(path_a: str, path_b: str) -> list:
    """(key, entry in A, entry in B) for every key whose entries differ; a missing entry is None."""
    a, b = load_outputs(path_a), load_outputs(path_b)
    return [(key, a.get(key), b.get(key)) for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def _first_line(text) -> str:
    return (text or "").split("\n", 1)[0]


def verdict(entry):
    """(exit code, first PASS/FAIL word of stdout) of an entry; None for a missing one."""
    if entry is None:
        return None
    word = re.search(r"\b(PASS|FAIL)\b", entry["stdout"] or "")
    return entry["code"], word and word.group(1)


def describe(entry) -> str:
    """Exit code, first stdout and stderr lines and any exception of one side, on one line."""
    if entry is None:
        return "absent"
    text = f"exit={entry['code']} stdout={_first_line(entry['stdout'])!r} stderr={_first_line(entry['stderr'])!r}"
    return text + (f" exception={entry['exception']!r}" if entry["exception"] else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "pdcg-output-grid"),
                        help="directory for the config and the one output path")
    parser.add_argument("--out", default=None, help="write the manifest as JSON")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list the entries two manifests differ in, with each side's exit code and first "
                        "output lines, and count the changed verdicts")
    args = parser.parse_args(argv)
    if args.diff:
        entries = diff(*args.diff)
        for key, a, b in entries:
            fields = sorted(f for f in set(a or {}) | set(b or {}) if (a or {}).get(f) != (b or {}).get(f))
            print(f"{key}  (differs in {', '.join(fields)})")
            print(f"  A: {describe(a)}")
            print(f"  B: {describe(b)}")
        changed = sum(verdict(a) != verdict(b) for _, a, b in entries)
        print(f"{len(entries)} entries differ; {changed} change their exit code or PASS/FAIL verdict")
        return 1 if entries else 0
    manifest = build_manifest(args.workdir)
    lines = src_lines()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**manifest, SRC_LINES: lines}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"outputs={len(manifest)} digest={digest(manifest)} src_lines={lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
