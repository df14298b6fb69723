"""Property-based tests: queue persistence and stream-offset invariants.

These are the crash-safety workhorses: whatever is in a queue record
must survive a write/read cycle bit-for-bit, recovered in-flight states
must collapse to safe ones, one queue holding every universe must come
back from a submit-machine reboot as it went down, and the GASS
append-offset protocol must yield the exact stream no matter how chunks
are resent or duplicated.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.condor.jobs import CondorJob, job_ad
from repro.condor.queue import JobQueue
from repro.core import job as J
from repro.core.job import GridJob
from repro.core.userlog import UserLog
from repro.gram.protocol import GramJobRequest
from repro.gass.files import FileStore, SimFile
from repro.sim import Host, Simulator
from repro.sim.hosts import StableStorage
from repro.states import GRID_RECOVER, POOL_RECOVER

# -- GridJob round-trip --------------------------------------------------------

grid_states = st.sampled_from([J.UNSUBMITTED, J.SUBMITTING, J.PENDING,
                               J.ACTIVE, J.DONE, J.FAILED, J.HELD])
small_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=12)


@st.composite
def grid_jobs(draw):
    return GridJob(
        job_id=f"gridjob-{draw(st.integers(1, 10**6))}",
        request=GramJobRequest(
            executable_url=draw(small_text),
            runtime=draw(st.floats(0.1, 10**6, allow_nan=False)),
            cpus=draw(st.integers(1, 64)),
        ),
        resource=draw(small_text),
        state=draw(grid_states),
        seq=draw(st.one_of(st.none(), small_text)),
        jmid=draw(small_text),
        contact=draw(small_text),
        attempts=draw(st.integers(0, 10)),
        committed=draw(st.booleans()),
    )


@given(grid_jobs())
@settings(max_examples=120)
def test_gridjob_record_roundtrip_through_stable_storage(job):
    store = StableStorage()
    store.put("q", job.job_id, job.queue_record())
    back = GridJob.from_record(store.get("q", job.job_id))
    assert back.job_id == job.job_id
    assert back.seq == job.seq
    assert back.jmid == job.jmid
    assert back.contact == job.contact
    # phase 1 answered but the commit unproven: the JobManager may be
    # running the job, so the record comes back as one to reconnect to
    # (the probe settles it), never as one to resubmit blind
    in_doubt = bool(job.jmid) and job.state in (J.SUBMITTING, J.PENDING,
                                                J.ACTIVE)
    assert back.committed == (job.committed or in_doubt)
    assert back.request.runtime == job.request.runtime
    # in-flight states collapse to safe ones, everything else is stable
    if job.state == J.SUBMITTING:
        assert back.state == (J.PENDING if back.committed
                              else J.UNSUBMITTED)
    else:
        assert back.state == job.state


@given(grid_jobs())
@settings(max_examples=60)
def test_recovered_job_never_in_submitting(job):
    back = GridJob.from_record(job.queue_record())
    assert back.state != J.SUBMITTING


# -- CondorJob round-trip --------------------------------------------------------

condor_states = st.sampled_from(["IDLE", "MATCHED", "RUNNING",
                                 "COMPLETED", "REMOVED", "HELD"])


@st.composite
def condor_jobs(draw):
    return CondorJob(
        job_id=f"{draw(st.integers(1, 10**6))}.0",
        ad=job_ad(draw(small_text) or "user"),
        runtime=draw(st.floats(0.1, 10**6, allow_nan=False)),
        universe=draw(st.sampled_from(["vanilla", "standard"])),
        state=draw(condor_states),
        progress=draw(st.floats(0.0, 10**6, allow_nan=False)),
        restarts=draw(st.integers(0, 20)),
    )


@given(condor_jobs())
@settings(max_examples=120)
def test_condorjob_record_roundtrip(job):
    back = CondorJob.from_record(job.queue_record())
    assert back.job_id == job.job_id
    assert back.runtime == job.runtime
    assert back.universe == job.universe
    assert back.progress == job.progress
    assert back.restarts == job.restarts
    if job.state in ("MATCHED", "RUNNING"):
        assert back.state == "IDLE"     # volatile states collapse
    else:
        assert back.state == job.state
    assert back.ad.get("Owner") == job.ad.get("Owner")


@pytest.mark.parametrize("rank", [math.inf, -math.inf, math.nan])
def test_a_recovered_job_keeps_a_non_finite_rank(rank):
    """A submit-machine reboot rebuilds the ad from its text, and a Rank
    of inf, -inf or nan ranks as it did before the reboot."""
    ad = job_ad("alice")
    ad["Rank"] = rank
    job = CondorJob(job_id="1.0", ad=ad, runtime=10.0)
    back = CondorJob.from_record(job.queue_record()).ad.eval("Rank")
    assert isinstance(back, float)
    assert back == rank or (math.isnan(back) and math.isnan(rank))


# -- one mixed queue across a submit-machine reboot -------------------------------

class _Executor:
    """Stands in for the GridManager and the Schedd: the queue only calls
    its executors back."""

    def moved(self, job, was):
        pass


def _boot_queue(host):
    """What the agent's boot action builds: the queue read back from disk
    (with the user log file), both executors attached."""
    queue = JobQueue(host, "alice", (GridJob, CondorJob),
                     userlog=UserLog(host.stable.namespace("userlog")))
    queue.attach(_Executor(), GridJob.UNIVERSES + CondorJob.UNIVERSES)
    return queue


def _new_job(queue, universe):
    if universe == "grid":
        return GridJob(job_id=queue.new_id(),
                       request=GramJobRequest(runtime=1.0))
    return CondorJob(job_id=queue.new_id(), ad=job_ad("alice"),
                     runtime=1.0, universe=universe)


def _move(queue, job, choice):
    """Take the `choice`-th declared edge out of `job`'s state (if any),
    setting what real code sets on the way."""
    edges = sorted(job.EDGES[job.state])
    if not edges:
        return
    state = edges[choice % len(edges)]
    if state == "HELD":
        job.hold_reason = "held by the test"
    elif state == "MATCHED":
        job.matched_to = f"slot{choice}@worker"
    elif state == "SUBMITTING" and choice % 2:
        job.jmid = f"jm-{job.job_id}"      # phase 1 answered
    elif state in ("DONE", "COMPLETED"):
        job.exit_code = 0
    elif state == "FAILED":
        job.failure_reason = "failed in the test"
    queue.transition(job, state, f"to_{state.lower()}")


def _log(queue):
    return [(e.time, e.job_id, e.event, dict(e.details))
            for e in queue.userlog.events]


MIXED_STEPS = st.lists(
    st.one_of(st.tuples(st.just("submit"),
                        st.sampled_from(["grid", "vanilla", "standard"])),
              st.tuples(st.just("move"), st.integers(0, 63),
                        st.integers(0, 63))),
    max_size=40)


@given(MIXED_STEPS, st.sets(st.integers(0, 40), max_size=3))
@settings(max_examples=80, deadline=None)
def test_mixed_queue_survives_submit_machine_reboots(steps, crash_points):
    """Grid, vanilla and standard jobs in one queue, moved along declared
    edges, the submit machine crashing at drawn points: what comes back
    is what went down, through each record's own RECOVER relation, and
    the user log lost and repeated nothing."""
    sim = Simulator(seed=1)
    host = Host(sim, "submit")
    queue = _boot_queue(host)
    for i, step in enumerate(steps + [("crash",)]):
        if i in crash_points or step[0] == "crash":
            before, log = queue.statuses(), _log(queue)
            host.crash()
            host.restart()
            queue = _boot_queue(host)
            after = queue.statuses()
            assert [s.job_id for s in after] == [s.job_id for s in before]
            for pre, post in zip(before, after):
                grid = pre.universe == "grid"
                recover = GRID_RECOVER if grid else POOL_RECOVER
                if pre.state in recover:
                    assert post.state in recover[pre.state]
                    pre = replace(pre, state=post.state, resource=(
                        pre.resource if grid else ""))
                assert post == pre
            # the rebooted queue numbers on past every id it holds
            fresh = [_new_job(queue, universe)
                     for universe in ("grid", "vanilla")]
            for job in fresh:
                assert job.job_id not in queue.jobs
                queue.submit(job)
            with pytest.raises(ValueError, match="already queued"):
                queue.submit(CondorJob(job_id=job.job_id,
                                       ad=job_ad("alice"), runtime=1.0))
            # each pre-crash record once, in order; then one `evicted`
            # per pool job the crash took off a slot; then what came next
            assert _log(queue)[:len(log)] == log
            assert [(jid, event) for _t, jid, event, _d
                    in _log(queue)[len(log):]] == \
                [(s.job_id, "evicted") for s in before
                 if s.universe != "grid" and s.state == "RUNNING"] + \
                [(job.job_id, "queued") for job in fresh]
        if step[0] == "submit":
            queue.submit(_new_job(queue, step[1]))
        elif step[0] == "move" and queue.jobs:
            ids = sorted(queue.jobs)
            _move(queue, queue.jobs[ids[step[1] % len(ids)]], step[2])
        sim.run(until=sim.now + 1.0)


# -- GASS stream offsets ---------------------------------------------------------

@given(st.lists(st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=8), min_size=1, max_size=12),
    st.data())
@settings(max_examples=150)
def test_append_with_offsets_is_duplicate_proof(chunks, data):
    """Replaying any prefix of already-sent chunks never corrupts the
    stream, as long as offsets are honest -- the resend-after-crash
    invariant that GRAM output streaming depends on."""
    store = FileStore()
    expected = ""
    sent = 0
    for chunk in chunks:
        # maybe re-send some earlier suffix first (a retry after a lost
        # ack): the server must drop the overlap
        if sent > 0 and data.draw(st.booleans()):
            back = data.draw(st.integers(1, sent))
            dup_offset = sent - back
            dup_data = expected[dup_offset:]
            current = store.get("f").size if store.exists("f") else 0
            skip = current - dup_offset
            store.append("f", dup_data[skip:] if skip > 0 else dup_data)
        expected += chunk
        current = store.get("f").size if store.exists("f") else 0
        skip = current - sent
        store.append("f", chunk[skip:] if skip > 0 else chunk)
        sent += len(chunk)
    assert store.get("f").data == expected
