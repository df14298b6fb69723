"""GRAM submission path: Figure 1 without the Condor-G agent on top."""

import pytest

from repro.gram import DONE, FAILED, GramJobRequest, PENDING, UNCOMMITTED
from repro.sim import RemoteError, call

from .conftest import MiniGrid


def submit_and_wait(grid, request, wait=200.0):
    """Submit via 2PC, then poll until terminal; returns final status."""

    def scenario():
        response = yield from grid.client.submit(
            "site-gk", request, callback=("submit", "gram-cb"))
        jmid, contact = response["jmid"], response["contact"]
        while True:
            yield grid.sim.timeout(5.0)
            status = (yield from grid.client.status(contact, [jmid]))[jmid]
            if status["state"] in (DONE, FAILED):
                return status

    return grid.drive(scenario(), until=wait)


def test_job_completes_via_gram(grid):
    url = grid.gass.stage_in("sim.exe", size=1000)
    box = submit_and_wait(grid, GramJobRequest(
        executable_url=url, runtime=10.0))
    assert box["value"]["state"] == DONE
    assert box["value"]["exit_code"] == 0


def _in_order(trace, component, *events):
    """`events` occur in `component`'s records in this order (not
    necessarily adjacent)."""
    logged = iter(rec.event for rec in trace.select(component))
    return all(event in logged for event in events)


def test_figure1_interaction_sequence(grid):
    """The trace shows the Figure-1 component interactions in order:
    gatekeeper creates JobManager -> stage-in via GASS -> LRM submit ->
    job starts -> job finishes -> JobManager reports DONE."""
    url = grid.gass.stage_in("sim.exe", size=1000)
    submit_and_wait(grid, GramJobRequest(executable_url=url, runtime=10.0))
    trace = grid.sim.trace
    assert trace.select("gatekeeper:site", "jobmanager_created")
    jm = trace.select("gatekeeper:site", "jobmanager_created")[0]
    jmid = jm.details["jmid"]
    assert _in_order(trace, f"jobmanager:{jmid}",
                     "committed", "staged", "lrm_submit")
    assert _in_order(trace, "lrm:site-lrm", "submit", "start", "finish")
    assert trace.select("gass:submit", "get")   # executable staged


@pytest.mark.parametrize("method", ["submit", "submit_v1", "start_monitor"])
def test_a_malformed_callback_is_refused_at_the_door(grid, method):
    """The gatekeeper stores the (host, service) a client wants to be
    called back at; a malformed one used to be taken as it came and kill
    the simulation at the first send, on the site's machine."""
    request = GramJobRequest(
        executable_url=grid.gass.stage_in("sim.exe", size=10), runtime=10.0)
    args = {"submit": dict(seq=1, request=request),
            "submit_v1": dict(request=request),
            "start_monitor": {}}[method]
    box = grid.drive(call(grid.submit, "site-gk", "gatekeeper", method,
                          callback=("submit", "gram-cb", "extra"), **args),
                     until=400.0)
    error = box.get("error")
    assert isinstance(error, RemoteError) and error.kind == "ValueError", box
    assert not [name for name in grid.gk_host.services
                if name.startswith(("jm:", "monitor:"))]


@pytest.mark.parametrize("method", ["submit", "submit_v1"])
@pytest.mark.parametrize("request_", [{"runtime": 5}, None, "a.out"],
                         ids=["dict", "none", "str"])
def test_a_malformed_request_is_refused_at_the_door(grid, method, request_):
    """Anything but a GramJobRequest used to be answered with a jmid,
    and the JobManager created for it killed the run at its commit."""
    args = {"submit": dict(seq=1), "submit_v1": {}}[method]
    box = grid.drive(call(grid.submit, "site-gk", "gatekeeper", method,
                          request=request_, **args), until=400.0)
    error = box.get("error")
    assert isinstance(error, RemoteError) and error.kind == "TypeError", box
    assert not [name for name in grid.gk_host.services
                if name.startswith("jm:")]
    assert not grid.sim.trace.select("gatekeeper:site", "jobmanager_created")


def test_status_callbacks_delivered(grid):
    url = grid.gass.stage_in("sim.exe", size=10)
    submit_and_wait(grid, GramJobRequest(executable_url=url, runtime=10.0))
    states = [kw["state"] for _, kw in grid.callbacks]
    assert PENDING in states or "ACTIVE" in states
    assert states[-1] == DONE


def test_failing_job_reports_failed(grid):
    box = submit_and_wait(grid, GramJobRequest(runtime=5.0, exit_code=2))
    assert box["value"]["state"] == FAILED


def test_walltime_limit_enforced_remotely(grid):
    box = submit_and_wait(grid, GramJobRequest(runtime=500.0, walltime=20.0))
    assert box["value"]["state"] == FAILED
    assert "walltime" in box["value"]["failure_reason"]


def test_stage_in_failure_fails_job(grid):
    box = submit_and_wait(grid, GramJobRequest(
        executable_url="gass://submit/gass/没有/missing", runtime=5.0))
    assert box["value"]["state"] == FAILED
    assert "stage-in" in box["value"]["failure_reason"]


def test_cancel_running_job(grid):
    def scenario():
        response = yield from grid.client.submit(
            "site-gk", GramJobRequest(runtime=1000.0))
        yield grid.sim.timeout(30.0)
        yield from grid.client.cancel(response["contact"],
                                      response["jmid"])
        yield grid.sim.timeout(10.0)
        return (yield from grid.client.status(
            response["contact"], [response["jmid"]]))[response["jmid"]]

    box = grid.drive(scenario())
    assert box["value"]["state"] == FAILED
    assert "cancel" in box["value"]["failure_reason"]


def test_stdout_streams_back_to_submit_gass(grid):
    def chatty(ctx):
        for i in range(3):
            ctx.write_output(f"event {i}\n")
            yield ctx.sim.timeout(10.0)
        return 0

    stdout_url = grid.gass.url("job.out")
    box = submit_and_wait(grid, GramJobRequest(
        program=chatty, stdout_url=stdout_url, walltime=500.0))
    assert box["value"]["state"] == DONE
    assert grid.gass.read("job.out").data == "event 0\nevent 1\nevent 2\n"


def test_commit_window_aborts_uncommitted_job(grid):
    """Phase 1 without phase 2: the JobManager must abort, never run."""
    from repro.sim import call

    def scenario():
        response = yield from call(
            grid.submit, "site-gk", "gatekeeper", "submit",
            seq=999, request=GramJobRequest(runtime=5.0))
        # deliberately never send commit; ask inside the end-commit
        # window that follows the abort (120 s + 120 s)
        yield grid.sim.timeout(200.0)
        return (yield from grid.client.status(
            response["contact"], [response["jmid"]]))[response["jmid"]]

    box = grid.drive(scenario())
    assert box["value"]["state"] == FAILED
    assert "commit window" in box["value"]["failure_reason"]
    assert not grid.lrm.jobs   # nothing ever reached the local scheduler


def test_duplicate_submit_same_seq_creates_one_job(grid):
    from repro.sim import call

    def scenario():
        r1 = yield from call(grid.submit, "site-gk", "gatekeeper", "submit",
                             seq=7, request=GramJobRequest(runtime=5.0))
        r2 = yield from call(grid.submit, "site-gk", "gatekeeper", "submit",
                             seq=7, request=GramJobRequest(runtime=5.0))
        yield from grid.client.commit(r1["contact"], r1["jmid"])
        yield grid.sim.timeout(60.0)
        return r1, r2

    box = grid.drive(scenario())
    r1, r2 = box["value"]
    assert r1["jmid"] == r2["jmid"]
    assert len(grid.lrm.jobs) == 1


def test_different_seq_creates_different_jobs(grid):
    from repro.sim import call

    def scenario():
        r1 = yield from call(grid.submit, "site-gk", "gatekeeper", "submit",
                             seq=1, request=GramJobRequest(runtime=5.0))
        r2 = yield from call(grid.submit, "site-gk", "gatekeeper", "submit",
                             seq=2, request=GramJobRequest(runtime=5.0))
        yield from grid.client.commit(r1["contact"], r1["jmid"])
        yield from grid.client.commit(r2["contact"], r2["jmid"])
        yield grid.sim.timeout(60.0)
        return r1, r2

    box = grid.drive(scenario())
    r1, r2 = box["value"]
    assert r1["jmid"] != r2["jmid"]
    assert len(grid.lrm.jobs) == 2


def test_gatekeeper_status_answers_for_the_callers_jobmanagers(grid):
    """One question about many JobManagers: the caller's live ones are
    in the answer, a crashed or unknown one is left out, and another
    caller sees none of them."""
    from repro.sim import Host, call

    other = Host(grid.sim, "other")

    def scenario():
        a = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=100.0))
        b = yield from grid.client.submit("site-gk",
                                          GramJobRequest(runtime=100.0))
        yield grid.sim.timeout(10.0)
        grid.gk_host.services[f"jm:{b['jmid']}"].crash()
        mine = yield from grid.client.status(
            "site-gk", [a["jmid"], b["jmid"], "site-jm99"])
        theirs = yield from call(other, "site-gk", "gatekeeper", "status",
                                 jmids=(a["jmid"],))
        return a["jmid"], mine, theirs

    jmid, mine, theirs = grid.drive(scenario())["value"]
    assert list(mine) == [jmid]
    assert mine[jmid]["state"] in (PENDING, "ACTIVE")
    assert theirs == {}




def test_queue_info_via_gatekeeper(grid):
    from repro.sim import call

    def scenario():
        info = yield from call(grid.submit, "site-gk", "gatekeeper",
                               "queue_info")
        return info

    box = grid.drive(scenario())
    assert box["value"]["slots"] == 4
    assert box["value"]["site"] == "site"
