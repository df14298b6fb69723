"""Tests of the benchmark suite itself.

Run explicitly (not part of tier-1)::

    python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import spread  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E = {m.name: m for m in metrics.END_TO_END}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# -- the manifest -----------------------------------------------------------------

def test_benchmark_json_is_the_metric_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_manifest_meets_the_contract():
    m = metrics.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/suite"]
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert [w["name"] for w in m["workloads"]] == [
        "gram-poll", "gram-monitor", "pool-negotiate", "multiuser",
        "faulted-full"]
    assert len(m["end_to_end"]) == 9 and len(m["per_layer"]) <= 128
    names = [w["name"] for w in m["workloads"]] \
        + [e["name"] for e in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in m["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    for e in m["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"}
        assert 0 < e["bound"] <= 0.25, e["name"]
    for e in m["per_layer"]:
        assert set(e) == {"name", "unit", "better"}
    for e in m["end_to_end"] + m["per_layer"]:
        assert UNIT.match(e["unit"]), e
        assert e["better"] in ("higher", "lower"), e
    setup = next(e for e in m["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])
    assert len(json.dumps(m)) < 64 * 1024


# -- the module -> layer map ------------------------------------------------------

def test_every_source_file_is_in_a_layer():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert sources
    for path in sources:
        assert tracing.layer_of(str(path)) in tracing.LAYERS, path


def test_layer_of_runtime_files():
    assert tracing.layer_of("~") == "runtime.builtins"
    assert tracing.layer_of("<string>") == "runtime.builtins"
    assert tracing.layer_of("/usr/lib/python3/heapq.py") == "runtime.stdlib"
    with pytest.raises(KeyError):
        tracing.layer_of("/x/src/repro/brand_new_package/mod.py")


# -- compare --------------------------------------------------------------------

def _side(value, lo=None, hi=None):
    return {"value": value, "min": value if lo is None else lo,
            "max": value if hi is None else hi}


def test_compare_verdicts_on_a_noisy_metric():
    jobs = E2E["jobs_per_s"]        # higher is better
    b = jobs.same_seed
    assert b == 0.10 < jobs.bound   # ISSUE 11's bound, not the driver's
    tight = lambda v: _side(v, v * 0.99, v * 1.01)  # noqa: E731
    assert compare.verdict(jobs, tight(100), tight(101))[0] == "same"
    assert compare.verdict(
        jobs, tight(100), tight(100 * (1 + 2 * b)))[0] == "better"
    assert compare.verdict(
        jobs, tight(100), tight(100 * (1 - 2 * b)))[0] == "worse"
    # ranges overlap and are wider than the bound: cannot tell
    wide = lambda v: _side(v, v * (1 - b), v * (1 + b))  # noqa: E731
    assert compare.verdict(jobs, wide(100), wide(95))[0] == "unresolved"
    assert compare.verdict(
        jobs, wide(100), wide(100 * (1 - b)))[0] == "unresolved"
    # ... unless every rep of one side beats every rep of the other
    assert compare.verdict(jobs, wide(100), wide(300))[0] == "better"
    assert compare.verdict(jobs, wide(300), wide(100))[0] == "worse"
    # a resolved 18 % drop is inside the driver's bound, not compare's
    assert compare.verdict(jobs, tight(100), tight(82))[0] == "worse"
    # a side that reads 0 has no relative spread to divide by
    assert compare.verdict(E2E["setup_s"], _side(0.0), _side(0.0)) \
        == ("same", 0.0)


def test_compare_verdicts_on_exact_metrics():
    makespan = E2E["sim_makespan_s"]    # lower is better
    assert compare.verdict(makespan, _side(1000.0), _side(1000.0)) \
        == ("same", 0.0)
    assert compare.verdict(makespan, _side(1000.0), _side(1010.0))[0] \
        == "same"
    assert compare.verdict(makespan, _side(1000.0), _side(1030.0))[0] \
        == "worse"
    assert compare.verdict(makespan, _side(1000.0), _side(900.0))[0] \
        == "better"
    done = E2E["completed_share"]
    assert compare.verdict(done, _side(1.0), _side(0.9999))[0] == "worse"
    assert compare.verdict(done, _side(1.0), _side(1.0))[0] == "same"


def _results(seed=1, workload=(), **override):
    e2e = {m.name: {**_side(100.0), "unit": m.unit, "reps": 3}
           for m in metrics.END_TO_END}
    e2e.update(override)
    entry = {"digest": "d" * 64, "events": 1000, "failed": 0,
             "rpcs": {"lrm.poll": 90, "jm:*.status": 10},
             "end_to_end": e2e, **dict(workload)}
    return {"environment": {"seed": seed, "scale": 1.0},
            "workloads": {"gram-poll": entry, "multiuser": entry}}


def test_compare_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"

    def exit_code(results, *flags):
        a.write_text(json.dumps(_results()))
        b.write_text(json.dumps(results))
        code = compare.main([str(a), str(b), *flags])
        return code, capsys.readouterr().out

    assert exit_code(_results())[0] == 0
    code, out = exit_code(_results(
        turnaround_p99_s={**_side(150.0), "unit": "s", "reps": 3}))
    assert code == 1 and "worse" in out
    # what must repeat bit for bit on one seed, unless an epoch is declared
    for change in ({"digest": "e" * 64}, {"events": 1001},
                   {"rpcs": {"lrm.poll": 91, "jm:*.status": 10}}):
        code, out = exit_code(_results(workload=change))
        assert code == 1 and "differs" in out, change
        code, out = exit_code(_results(workload=change), "--digest-epoch")
        assert code == 0 and "epoch" in out, change
    code, out = exit_code(_results(workload={"failed": 1}))
    assert code == 1 and "worse" in out
    # a results file that dropped a workload does not compare clean
    dropped = _results()
    del dropped["workloads"]["multiuser"]
    code, out = exit_code(dropped)
    assert code == 1 and "missing" in out
    with pytest.raises(ValueError, match="seed"):
        compare.compare(_results(seed=1), _results(seed=2))


def test_spread_is_the_contract_s_quartile_distance():
    # quantiles(1..10, n=4) = 2.75, 5.5, 8.25
    assert spread.iqr_share(list(range(1, 11))) == pytest.approx(1.0)
    assert spread.iqr_share([7.0] * 10) == 0.0


def test_spread_reports_how_the_simulator_followed_the_yardstick():
    def runs(exponent, slowdowns):
        return [{"slowdown": s, spread.RAW: 200.0 / s ** exponent}
                for s in slowdowns]
    wide = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    assert spread.followed(runs(1.0, wide)) == pytest.approx(1.0)
    assert spread.followed(runs(0.8, wide)) == pytest.approx(0.8)
    assert spread.followed(runs(1.0, [1.0, 1.05, 1.1])) is None


# -- the pipeline, end to end -------------------------------------------------------

SMALL = ("--scale", "0.02", "--seed", "11")


def test_single_run_prints_the_contract_line():
    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        proc = _run("benchmarks/suite/run.py", "--workload", "gram-monitor",
                    "--seconds", "0.5", "--trace", str(trace), *SMALL)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m.name for m in table}
        for m in table:
            assert result["metrics"][m.name]["unit"] == m.unit


def test_full_pipeline_at_small_scale(tmp_path):
    out = tmp_path / "results.json"
    manifest = (ROOT / "BENCHMARK.json").stat().st_mtime_ns
    proc = _run("benchmarks/suite/run.py", "--seconds", "0.5",
                "--out", str(out), *SMALL)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = json.loads(out.read_text())
    assert results["environment"]["scale"] == 0.02
    assert (ROOT / "BENCHMARK.json").stat().st_mtime_ns == manifest
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0, name
        assert set(entry["end_to_end"]) == {m.name
                                            for m in metrics.END_TO_END}
        assert set(entry["per_layer"]) == {m.name
                                           for m in metrics.PER_LAYER}
        for m in metrics.END_TO_END:
            assert entry["end_to_end"][m.name]["value"] > 0, (name, m.name)
            assert f" {m.name} " in proc.stdout
        assert (HERE / "out" / f"trace-{name}.json").exists()
    # the same results against themselves: nothing is worse
    again = _run("benchmarks/suite/run.py", "compare", str(out), str(out))
    assert again.returncode == 0, again.stdout
    assert "0 worse" in again.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("benchmarks/suite/run.py", "--workload", "gram-poll",
                "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
