"""Tests for the local resource manager layer."""

import pytest

from repro.lrm import (
    CANCELLED,
    COMPLETED,
    CondorPoolLRM,
    FAILED,
    ForkLRM,
    JobSpec,
    LoadLevelerCluster,
    LSFCluster,
    NQECluster,
    PBSCluster,
    QUEUED,
    RUNNING,
    make_lrm,
)
from repro.sim import Host, Network, Simulator


def make(sim_seed=1, flavor_cls=PBSCluster, slots=2, **kw):
    sim = Simulator(seed=sim_seed)
    Network(sim, latency=0.01, jitter=0.0)
    host = Host(sim, "cluster-head")
    lrm = flavor_cls(host, slots, **kw)
    return sim, lrm


def test_job_runs_to_completion():
    sim, lrm = make()
    jid = lrm.submit(JobSpec(runtime=10.0), owner="alice")
    sim.run()
    job = lrm.jobs[jid]
    assert job.state == COMPLETED
    assert job.start_time == pytest.approx(0.0)
    assert job.end_time == pytest.approx(10.0)
    assert job.exit_code == 0


def test_nonzero_exit_code_fails():
    sim, lrm = make()
    jid = lrm.submit(JobSpec(runtime=1.0, exit_code=3), owner="alice")
    sim.run()
    job = lrm.jobs[jid]
    assert job.state == FAILED
    assert "exit code 3" in job.failure_reason


def test_jobs_queue_when_slots_busy():
    sim, lrm = make(slots=1)
    a = lrm.submit(JobSpec(runtime=10.0), owner="alice")
    b = lrm.submit(JobSpec(runtime=10.0), owner="alice")
    sim.run()
    assert lrm.jobs[a].end_time == pytest.approx(10.0)
    assert lrm.jobs[b].start_time == pytest.approx(10.0)
    assert lrm.jobs[b].end_time == pytest.approx(20.0)


def test_walltime_kills_job():
    sim, lrm = make()
    jid = lrm.submit(JobSpec(runtime=100.0, walltime=10.0), owner="alice")
    sim.run()
    job = lrm.jobs[jid]
    assert job.state == FAILED
    assert "walltime" in job.failure_reason
    assert job.end_time == pytest.approx(10.0)


def test_cancel_queued_job():
    sim, lrm = make(slots=1)
    lrm.submit(JobSpec(runtime=10.0), owner="alice")
    b = lrm.submit(JobSpec(runtime=10.0), owner="alice")
    sim.schedule(1.0, lambda: lrm.cancel(b))
    sim.run()
    assert lrm.jobs[b].state == CANCELLED


def test_cancel_running_job():
    sim, lrm = make(slots=1)
    a = lrm.submit(JobSpec(runtime=100.0), owner="alice")
    sim.schedule(5.0, lambda: lrm.cancel(a))
    sim.run()
    job = lrm.jobs[a]
    assert job.state == CANCELLED
    assert job.end_time == pytest.approx(5.0)


def test_cancel_finished_job_is_noop():
    sim, lrm = make()
    a = lrm.submit(JobSpec(runtime=1.0), owner="alice")
    sim.run()
    assert lrm.cancel(a) is False
    assert lrm.jobs[a].state == COMPLETED


def test_multi_cpu_job_takes_whole_cluster():
    sim, lrm = make(slots=4)
    big = lrm.submit(JobSpec(runtime=10.0, cpus=4), owner="alice")
    small = lrm.submit(JobSpec(runtime=1.0, cpus=1), owner="bob")
    sim.run()
    assert lrm.jobs[big].start_time == pytest.approx(0.0)
    assert lrm.jobs[small].start_time >= 10.0 or \
        lrm.jobs[small].start_time == pytest.approx(0.0)


def test_loadleveler_strict_fifo_blocks():
    sim, lrm = make(flavor_cls=LoadLevelerCluster, slots=2)
    lrm.submit(JobSpec(runtime=10.0, cpus=1), owner="a")
    lrm.submit(JobSpec(runtime=10.0, cpus=2), owner="a")   # head blocked
    narrow = lrm.submit(JobSpec(runtime=2.0, cpus=1), owner="b")
    sim.run()
    # strict FIFO: narrow may not start until the wide head has started
    assert lrm.jobs[narrow].start_time >= 10.0


def test_nqe_priority_order():
    sim, lrm = make(flavor_cls=NQECluster, slots=1)
    lrm.submit(JobSpec(runtime=5.0), owner="a")            # runs first
    low = lrm.submit(JobSpec(runtime=5.0, priority=0), owner="a")
    high = lrm.submit(JobSpec(runtime=5.0, priority=9), owner="b")
    sim.run()
    assert lrm.jobs[high].start_time < lrm.jobs[low].start_time


def test_lsf_fairshare_interleaves_users():
    sim, lrm = make(flavor_cls=LSFCluster, slots=1)
    a1 = lrm.submit(JobSpec(runtime=5.0), owner="alice")
    a2 = lrm.submit(JobSpec(runtime=5.0), owner="alice")
    b1 = lrm.submit(JobSpec(runtime=5.0), owner="bob")
    sim.run()
    # bob's first job should run before alice's second
    assert lrm.jobs[b1].start_time < lrm.jobs[a2].start_time


def test_fork_immediate_parallel():
    sim, lrm = make(flavor_cls=ForkLRM, slots=4)
    ids = [lrm.submit(JobSpec(runtime=3.0), owner="u") for _ in range(4)]
    sim.run()
    assert all(lrm.jobs[i].start_time == pytest.approx(0.0) for i in ids)


def test_condor_pool_preemption_requeues_and_finishes():
    sim, lrm = make(flavor_cls=CondorPoolLRM, slots=2, owner_mtbf=20.0,
                    owner_busy_time=5.0)
    ids = [lrm.submit(JobSpec(runtime=60.0), owner="alice")
           for _ in range(4)]
    sim.run(until=5000.0)
    jobs = [lrm.jobs[i] for i in ids]
    assert all(j.state == COMPLETED for j in jobs)
    assert sum(j.preempt_count for j in jobs) > 0


def test_non_checkpointable_restarts_from_scratch():
    sim, lrm = make(flavor_cls=CondorPoolLRM, slots=1, owner_mtbf=0.0)
    jid = lrm.submit(JobSpec(runtime=100.0), owner="alice")
    sim.schedule(60.0, lambda: lrm.preempt(jid))
    sim.run()
    job = lrm.jobs[jid]
    assert job.state == COMPLETED
    assert job.end_time == pytest.approx(160.0)


def test_program_job_runs_generator():
    sim, lrm = make()
    log = []

    def program(ctx):
        log.append(("start", ctx.sim.now))
        yield ctx.sim.timeout(5.0)
        log.append(("end", ctx.sim.now))
        return 0

    jid = lrm.submit(JobSpec(program=program, walltime=100.0), owner="u")
    sim.run()
    assert lrm.jobs[jid].state == COMPLETED
    assert log == [("start", 0.0), ("end", 5.0)]


def test_program_killed_at_walltime():
    sim, lrm = make()
    reached = []

    def program(ctx):
        yield ctx.sim.timeout(50.0)
        reached.append(True)

    jid = lrm.submit(JobSpec(program=program, walltime=10.0), owner="u")
    sim.run()
    assert lrm.jobs[jid].state == FAILED
    assert reached == []


def test_program_exception_fails_job():
    sim, lrm = make()

    def program(ctx):
        yield ctx.sim.timeout(1.0)
        raise RuntimeError("program bug")

    jid = lrm.submit(JobSpec(program=program), owner="u")
    sim.run()
    job = lrm.jobs[jid]
    assert job.state == FAILED
    assert "program bug" in job.failure_reason


def test_env_override_visible_to_program():
    sim, lrm = make()
    seen = []

    def program(ctx):
        seen.append(ctx.read_env("GASS_URL"))
        yield ctx.sim.timeout(5.0)
        seen.append(ctx.read_env("GASS_URL"))

    jid = lrm.submit(JobSpec(program=program,
                             env={"GASS_URL": "gass://old"}), owner="u")
    sim.schedule(2.0, lambda: lrm._env_overrides.setdefault(jid, {})
                 .update({"GASS_URL": "gass://new"}))
    sim.run()
    assert seen == ["gass://old", "gass://new"]


def test_rpc_submit_and_poll():
    sim, lrm = make()
    client = Host(sim, "client")
    from repro.sim import call
    results = {}

    def driver():
        jid = yield from call(client, "cluster-head", "lrm", "submit",
                              spec=JobSpec(runtime=5.0), owner="alice")
        yield sim.timeout(10.0)
        results["jid"] = jid
        results["reply"] = yield from call(client, "cluster-head", "lrm",
                                           "poll", local_ids=[jid])

    sim.spawn(driver())
    sim.run()
    (view,) = results["reply"]["views"]
    assert view["local_id"] == results["jid"]
    assert view["state"] == COMPLETED
    assert view["state_since"] == pytest.approx(view["end_time"])


# -- the change log behind poll ------------------------------------------------

def poll(lrm, since=None, local_ids=()):
    return lrm.handle_poll(None, since=since, local_ids=local_ids)


def ids(reply):
    return [view["local_id"] for view in reply["views"]]


def test_poll_without_history_lists_only_the_ids_asked_for():
    sim, lrm = make()
    a = lrm.submit(JobSpec(runtime=5.0), owner="u")
    lrm.submit(JobSpec(runtime=5.0), owner="u")
    sim.run()
    reply = poll(lrm, local_ids=[a])
    assert ids(reply) == [a]
    assert reply["cursor"] == len(lrm._changes) == 4   # 2 starts, 2 finishes


def test_poll_same_cursor_twice_gives_the_same_reply():
    """The LRM keeps no per-caller state: a caller whose reply was lost
    asks again with the old cursor and gets the same changes."""
    sim, lrm = make(slots=1)
    a = lrm.submit(JobSpec(runtime=5.0), owner="u")
    b = lrm.submit(JobSpec(runtime=5.0), owner="u")
    sim.run(until=1.0)
    start = poll(lrm)["cursor"]
    sim.run(until=7.0)        # a finished, b started
    first = poll(lrm, since=start)
    again = poll(lrm, since=start)
    assert first == again
    assert ids(first) == [a, b]
    assert [v["state"] for v in first["views"]] == [COMPLETED, RUNNING]
    # adopting the cursor: nothing further until something changes
    assert not poll(lrm, since=first["cursor"])["views"]
    sim.run()
    assert ids(poll(lrm, since=first["cursor"])) == [b]


def test_poll_lists_a_job_once_however_often_it_changed():
    sim, lrm = make()
    a = lrm.submit(JobSpec(runtime=5.0), owner="u")
    sim.run()                 # start + finish: two log entries
    reply = poll(lrm, since=0, local_ids=[a, a])
    assert ids(reply) == [a]
    assert reply["views"][0]["state"] == COMPLETED


def test_poll_omits_unknown_ids():
    sim, lrm = make()
    a = lrm.submit(JobSpec(runtime=5.0), owner="u")
    sim.run(until=1.0)
    assert ids(poll(lrm, local_ids=["pbs.999", a])) == [a]


def test_poll_lists_output_growth_with_stream_lengths():
    sim, lrm = make()

    def program(ctx):
        ctx.write_output("hello\n")
        yield ctx.sim.timeout(10.0)
        ctx.write_error("oops")
        yield ctx.sim.timeout(10.0)

    a = lrm.submit(JobSpec(program=program), owner="u")
    quiet = lrm.submit(JobSpec(runtime=30.0), owner="u")
    sim.run(until=5.0)
    cursor = poll(lrm)["cursor"]
    sim.run(until=15.0)       # only a's stderr grew
    reply = poll(lrm, since=cursor)
    assert ids(reply) == [a]
    assert reply["views"][0]["stdout_len"] == len("hello\n")
    assert reply["views"][0]["stderr_len"] == len("oops")
    view = poll(lrm, local_ids=[quiet])["views"][0]
    assert (view["stdout_len"], view["stderr_len"]) == (0, 0)


def test_poll_lists_preempt_requeue_and_restart():
    sim, lrm = make(flavor_cls=CondorPoolLRM, slots=1)
    a = lrm.submit(JobSpec(runtime=50.0), owner="u")
    sim.run(until=10.0)
    cursor = poll(lrm)["cursor"]
    lrm.preempt(a)
    lrm.free_slots -= 1       # the workstation's owner is back for a while
    sim.run(until=15.0)
    requeued = poll(lrm, since=cursor)
    (view,) = requeued["views"]
    assert (view["local_id"], view["state"], view["preempt_count"]) == \
        (a, QUEUED, 1)
    assert view["state_since"] == pytest.approx(10.0)
    lrm.free_slots += 1
    lrm._kick()
    sim.run(until=16.0)
    (view,) = poll(lrm, since=requeued["cursor"])["views"]
    assert (view["state"], view["state_since"]) == (RUNNING,
                                                    pytest.approx(15.0))


def test_queue_info_counts():
    sim, lrm = make(slots=1)
    lrm.submit(JobSpec(runtime=100.0), owner="a")
    lrm.submit(JobSpec(runtime=100.0), owner="a")
    sim.run(until=1.0)
    info = lrm.queue_info()
    assert info["running_jobs"] == 1
    assert info["queued_jobs"] == 1
    assert info["free_slots"] == 0


def test_busy_time_accounting():
    sim, lrm = make(slots=2)
    lrm.submit(JobSpec(runtime=10.0), owner="a")
    lrm.submit(JobSpec(runtime=5.0, cpus=2), owner="a")
    sim.run()
    assert lrm.total_busy_time == pytest.approx(10.0 + 5.0 * 2)


def test_make_lrm_factory():
    sim = Simulator()
    host = Host(sim, "h")
    assert make_lrm("pbs", host, 4).flavor == "pbs"
    with pytest.raises(ValueError):
        make_lrm("slurm", Host(sim, "h2"), 4)
