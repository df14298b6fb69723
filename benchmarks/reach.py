"""Which functions of a package does no consumer of the system enter?

    PYTHONPATH=src python benchmarks/reach.py repro

Runs the *consumer set* once, in this process, under a
``sys.setprofile`` hook that records every code object entered, then
prints, per source file of the package, each function (``def`` or
``lambda``) that was never entered, with its body length.  The consumer
set is what the system is for, not its unit tests:

* the golden-digest cells (``tests/test_golden_digests.py``);
* the paper-claim, ablation and chaos-campaign benches, and the CI
  smoke cells of ``bench_scale``/``bench_multiuser``/``bench_data``/
  ``bench_burst`` (their results go to a temporary directory);
* every script under ``examples/``;
* the audited chaos campaign (the CI scenarios, two seeds, inline,
  with its JSON report);
* the seven committed plans under ``tests/chaos/plans/``;
* every ``benchmarks/suite`` workload, untraced, at scale 0.2.

A cProfile pass replaces the profile hook and its end clears it, so
the hook is re-armed before every test phase and every consumer; the
forked children of ``chaos shrink`` are not seen (their parent runs the
same code first).

A function no consumer enters is deleted, or kept on purpose: it is
named in ``benchmarks/reach_keep.json`` (``"module:qualname"`` ->
reason, the reason led by one of :data:`CATEGORIES`).  The run exits 1
when an unreached function is not on that list, or when an entry of the
list under the package names no function or gives no known category;
it exits 0 otherwise, and says which kept entries a consumer did reach
after all.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEEP = Path(__file__).with_name("reach_keep.json")
#: why a function no consumer enters may stay; each keep reason starts
#: with one of these, then names the caller or cell
CATEGORIES = ("safety:", "error path:", "protocol:", "user contract:",
              "bench cell:", "suite:", "reference:", "unseen:")

BENCHES = ("bench_claim_*.py", "bench_exp*.py", "bench_fig*.py",
           "bench_ablation_*.py", "bench_chaos_campaign.py")
#: the CI smoke cells of the BENCH_* files: (file, cells variable, cells)
SMOKE_CELLS = (
    ("bench_scale.py", "BENCH_SCALE",
     "smoke-gram,smoke-gram-monitor,smoke-pool,glidein"),
    ("bench_multiuser.py", "BENCH_MULTIUSER", "smoke-gram"),
    ("bench_data.py", "BENCH_DATA", "smoke-data,smoke-blind"),
    ("bench_burst.py", "BENCH_BURST", "smoke-flash"),
)
CAMPAIGN = ("quickstart,three-site,credential,pool-reuse,data-cms,"
            "burst-overload,monitored-gram")
#: each committed plan with the cell CI replays it in
PLANS = (
    ("credential", 0, "submit_reboot.json", ()),
    ("pool-reuse", 0, "pool_submit_reboot.json", ()),
    ("monitored-gram", 0, "monitor_faults.json", ()),
    ("burst-overload", 0, "overload_gk_crash.json", ()),
    ("burst-flash", 0, "factory_kill.json", ()),
    ("quickstart", 0, "index_crash.json", ()),
    ("shrink-lab", 11, "shrink_lab.json", ("--no-audit", "--shrink")),
)


# -- the hook -----------------------------------------------------------------

#: every code object entered, by identity: code objects compare by
#: value, not by file, so two same-bodied methods on the same line of two
#: files would otherwise count as one
_entered: dict = {}


def _hook(frame, event, _arg):
    if event == "call":
        _entered[id(frame.f_code)] = frame.f_code


def arm() -> None:
    sys.setprofile(_hook)


# -- the consumers ------------------------------------------------------------

def _pytest(out_dir: str) -> None:
    import pytest

    class Rearm:
        """Re-arms the hook before each phase of every test."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            arm()

    files = ["tests/test_golden_digests.py"]
    for pattern in BENCHES:
        files += sorted(str(p.relative_to(ROOT))
                        for p in (ROOT / "benchmarks").glob(pattern))
    for name, var, cells in SMOKE_CELLS:
        os.environ[f"{var}_CELLS"] = cells
        os.environ[f"{var}_OUT"] = os.path.join(out_dir, f"{var}.json")
        files.append(f"benchmarks/{name}")
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", *files],
                       plugins=[Rearm()])
    if code != 0:
        raise SystemExit(f"reach: a consumer test failed (pytest exit {code})")


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        arm()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            runpy.run_path(str(path), run_name="__main__")
        if not out.getvalue().rstrip().splitlines()[-1].startswith("OK:"):
            raise SystemExit(f"reach: {path.name} did not end OK:\n"
                             + out.getvalue())


def _chaos(out_dir: str) -> None:
    from repro.chaos.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        arm()
        if main(["run", "--scenarios", CAMPAIGN, "--seeds", "2",
                 "--workers", "1", "--audit",
                 "--json", os.path.join(out_dir, "chaos.json")]) != 0:
            raise SystemExit("reach: the chaos campaign failed:\n"
                             + out.getvalue())
        for scenario, seed, plan, extra in PLANS:
            arm()
            code = main(["repro", scenario, str(seed), "--plan",
                         str(ROOT / "tests/chaos/plans" / plan), *extra])
            if code != (1 if "--shrink" in extra else 0):
                raise SystemExit(f"reach: plan {plan} ended {code}:\n"
                                 + out.getvalue())


def _suite() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks/suite"))
    import harness
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        arm()
        result = harness.run_pass(workload, 706, 0.2)
        if result.failures or result.failed_jobs:
            raise SystemExit(f"reach: suite workload {name} failed: "
                             f"{result.failures}")


def run_consumers() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        steps = (("tests and benches", lambda: _pytest(out_dir)),
                 ("examples", _examples),
                 ("chaos", lambda: _chaos(out_dir)),
                 ("suite", _suite))
        for name, step in steps:
            t0 = time.perf_counter()
            arm()
            step()
            sys.setprofile(None)
            print(f"reach: {name} done in {time.perf_counter() - t0:.0f} s",
                  file=sys.stderr)


# -- the report ---------------------------------------------------------------

def definitions(package: str) -> list[tuple[str, str, str, int, int]]:
    """Every function of `package`: ``(file, module, qualname, first
    line as the code object has it, body lines)``."""
    base = ROOT / "src" / package.replace(".", "/")
    if not (base / "__init__.py").exists():
        raise SystemExit(f"reach: no package {package} under src/")
    found = []
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).with_suffix("")
        module = ".".join((package, *rel.parts)).removesuffix(".__init__")
        found += _walk(ast.parse(path.read_text()), str(path), module, "")
    return found


def _walk(node, path, module, prefix):
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            out.append((path, module, name, first,
                        child.end_lineno - child.body[0].lineno + 1))
            out += _walk(child, path, module, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            out += _walk(child, path, module, prefix + child.name + ".")
        elif isinstance(child, ast.Lambda):
            out.append((path, module, f"{prefix}<lambda>@{child.lineno}",
                        child.lineno, 1))
            out += _walk(child, path, module, prefix)
        else:
            out += _walk(child, path, module, prefix)
    return out


def keep_errors(keep: dict, package: str, functions) -> list[str]:
    """What is wrong with the keep-list entries under `package`, whose
    :func:`definitions` are `functions`: an entry naming no function, or
    a reason led by no category."""
    names = {f"{module}:{name}" for _, module, name, _, _ in functions}
    errors = []
    for key, reason in sorted(keep.items()):
        module = key.split(":")[0]
        if module != package and not module.startswith(package + "."):
            continue
        if key not in names:
            errors.append(f"the keep-list names {key}, which does not exist")
        elif not reason.startswith(CATEGORIES):
            errors.append(f"the keep reason of {key} starts with none of "
                          f"{', '.join(CATEGORIES)}")
    return errors


def report(package: str) -> int:
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno,
                "<lambda>" if c.co_name == "<lambda>" else c.co_name)
               for c in _entered.values()}
    keep = json.loads(KEEP.read_text())
    functions = definitions(package)
    unreached, kept_reached, lines = [], [], 0
    by_file: dict[str, list[str]] = {}
    for path, module, name, first, body in functions:
        short = name.rsplit(".", 1)[-1]
        short = "<lambda>" if short.startswith("<lambda>") else short
        key = f"{module}:{name}"
        if (path, first, short) in entered:
            if key in keep:
                kept_reached.append(key)
            continue
        lines += body
        reason = keep.get(key)
        if reason is None:
            unreached.append(key)
        mark = f"  [kept: {reason}]" if reason else ""
        by_file.setdefault(os.path.relpath(path, ROOT), []).append(
            f"  {first:5d} {name} ({body} lines){mark}")
    for path, rows in by_file.items():
        print(path)
        print("\n".join(rows))
    print(f"{package}: {sum(map(len, by_file.values()))} of "
          f"{len(functions)} functions ({lines} body lines) entered by no "
          f"consumer; {len(unreached)} not on the keep-list")
    for key in kept_reached:
        print(f"note: kept {key} is reached by a consumer")
    errors = keep_errors(keep, package, functions)
    for error in errors:
        print(f"error: {error}")
    return 1 if unreached or errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package", help="e.g. repro or repro.classads")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    definitions(args.package)           # fail fast on a bad package name
    arm()                               # before the first import of any
    run_consumers()
    return report(args.package)


if __name__ == "__main__":
    raise SystemExit(main())
