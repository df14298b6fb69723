"""Tests for the Condor pool: matchmaking, execution, checkpointing."""

import pytest

from repro.condor import (
    COMPLETED,
    CondorJob,
    IDLE,
    RUNNING,
    Schedd,
    build_pool,
    job_ad,
)
from repro.sim import Host, Network, Simulator
from repro.sim.fastcopy import FrozenDict


def make_env(workers=3, cycle=10.0, seed=2):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=workers, cycle_interval=cycle)
    submit = Host(sim, "submit")
    schedd = Schedd(submit, collector=pool.collector_contact)
    return sim, pool, submit, schedd


def test_vanilla_job_matches_and_completes():
    sim, pool, submit, schedd = make_env()
    jid = schedd.submit_simple("alice", runtime=50.0)
    sim.run(until=400.0)
    job = schedd.status(jid)
    assert job.state == COMPLETED
    assert job.exit_code == 0
    assert job.matched_to.startswith("slot@pool-w")


def test_multiple_jobs_spread_across_slots():
    sim, pool, submit, schedd = make_env(workers=3)
    ids = [schedd.submit_simple("alice", runtime=100.0) for _ in range(3)]
    sim.run(until=60.0)
    running = [schedd.status(i) for i in ids if
               schedd.status(i).state == RUNNING]
    assert len(running) == 3
    machines = {j.matched_to for j in running}
    assert len(machines) == 3      # one job per slot
    sim.run(until=500.0)
    assert all(schedd.status(i).state == COMPLETED for i in ids)


def test_more_jobs_than_slots_queue():
    sim, pool, submit, schedd = make_env(workers=2)
    ids = [schedd.submit_simple("alice", runtime=60.0) for _ in range(5)]
    sim.run(until=1000.0)
    jobs = [schedd.status(i) for i in ids]
    assert all(j.state == COMPLETED for j in jobs)
    # serialized: total makespan at least ceil(5/2)*60
    assert max(j.end_time for j in jobs) >= 3 * 60.0


def test_requirements_respected():
    sim, pool, submit, schedd = make_env()
    jid = schedd.submit_simple("alice", runtime=10.0,
                               requirements='TARGET.Arch == "SPARC"')
    sim.run(until=300.0)
    assert schedd.status(jid).state == IDLE   # nothing matches, stays idle


def test_rank_prefers_faster_machines():
    sim = Simulator(seed=2)
    Network(sim, latency=0.02, jitter=0.0)
    from repro.condor import Startd, machine_ad, Collector, Negotiator

    central = Host(sim, "cm")
    Collector(central)
    Negotiator(central, collector="cm", cycle_interval=10.0)
    slow_host = Host(sim, "slow")
    fast_host = Host(sim, "fast")
    Startd(slow_host, "slot@slow", collector="cm",
           ad=machine_ad("slot@slow", mips=10))
    Startd(fast_host, "slot@fast", collector="cm",
           ad=machine_ad("slot@fast", mips=1000))
    submit = Host(sim, "submit")
    schedd = Schedd(submit, collector="cm")
    jid = schedd.submit_simple("alice", runtime=20.0, rank="TARGET.Mips")
    sim.run(until=200.0)
    assert schedd.status(jid).matched_to == "slot@fast"


def test_standard_universe_resumes_from_checkpoint():
    sim, pool, submit, schedd = make_env(workers=1)
    jid = schedd.submit_simple("alice", runtime=300.0, universe="standard")
    # vacate the job mid-run; the startd sends a final checkpoint
    startd = pool.startds[0]

    def vacate_late():
        yield sim.timeout(200.0)
        startd.handle_vacate(None)

    sim.spawn(vacate_late())
    sim.run(until=2000.0)
    job = schedd.status(jid)
    assert job.state == COMPLETED
    assert job.restarts == 1
    assert job.progress > 0.0               # checkpoint was banked
    # resumed, not restarted: end well before a full 2x runtime + slack
    total_elapsed = job.end_time - job.submit_time
    assert total_elapsed < 2 * 300.0


def test_vanilla_restarts_from_scratch_after_vacate():
    sim, pool, submit, schedd = make_env(workers=1)
    jid = schedd.submit_simple("alice", runtime=300.0, universe="vanilla")
    startd = pool.startds[0]

    def vacate_late():
        yield sim.timeout(200.0)
        startd.handle_vacate(None)

    sim.spawn(vacate_late())
    sim.run(until=3000.0)
    job = schedd.status(jid)
    assert job.state == COMPLETED
    assert job.restarts == 1
    # full rerun: completion needs >= 200 (wasted) + 300 (rerun)
    assert job.end_time - job.submit_time >= 450.0


def test_worker_host_crash_triggers_lease_recovery():
    """A glidein/worker dying silently: the shadow's lease expires and
    the job is rescheduled elsewhere."""
    sim, pool, submit, schedd = make_env(workers=2)
    jid = schedd.submit_simple("alice", runtime=400.0, universe="standard")
    sim.run(until=100.0)
    job = schedd.status(jid)
    assert job.state == RUNNING
    victim = job.matched_to            # crash the machine it runs on
    host = next(h for h in pool.worker_hosts
                if f"slot@{h.name}" == victim)
    host.crash()
    sim.run(until=3000.0)
    job = schedd.status(jid)
    assert job.state == COMPLETED
    assert job.restarts >= 1
    assert job.matched_to != victim    # finished on the other slot


def test_remote_syscalls_counted():
    sim, pool, submit, schedd = make_env(workers=1)
    job = CondorJob(job_id=schedd.queue.new_id(),
                    ad=job_ad("alice"),
                    runtime=100.0, universe="standard",
                    io_interval=10.0, io_bytes=1024)
    jid = schedd.submit(job)
    sim.run(until=600.0)
    done = schedd.status(jid)
    assert done.state == COMPLETED
    assert done.remote_syscalls >= 9


def test_program_job_runs_application_body():
    sim, pool, submit, schedd = make_env(workers=1)
    events = []

    def app(ctx):
        result = yield from ctx.syscall("get_task", nbytes=10)
        events.append(result)
        yield ctx.sim.timeout(30.0)
        result = yield from ctx.syscall("put_result", nbytes=20)
        events.append(result)
        return 0

    job = CondorJob(job_id=schedd.queue.new_id(), ad=job_ad("alice"),
                    runtime=30.0, universe="standard", program=app)
    jid = schedd.submit(job)
    sim.run(until=400.0)
    assert schedd.status(jid).state == COMPLETED
    assert events == [{"ok": True}, {"ok": True}]


def test_schedd_queue_survives_submit_host_crash():
    sim, pool, submit, schedd = make_env(workers=2)
    ids = [schedd.submit_simple("alice", runtime=60.0) for _ in range(3)]
    sim.run(until=20.0)
    submit.crash()
    sim.run(until=40.0)
    submit.restart()
    schedd2 = Schedd(submit, collector=pool.collector_contact)
    recovered = set(schedd2.queue.jobs)
    assert recovered == set(ids)
    # recovered jobs are idle (running state was volatile) and re-runnable
    sim.run(until=2000.0)
    assert all(schedd2.status(i).state == COMPLETED for i in ids)


def test_hold_release_cycle():
    sim, pool, submit, schedd = make_env()
    jid = schedd.submit_simple("alice", runtime=30.0)
    assert schedd.hold(jid, reason="credentials expired")
    sim.run(until=100.0)
    assert schedd.status(jid).state == "HELD"
    assert schedd.status(jid).hold_reason == "credentials expired"
    schedd.release(jid)
    sim.run(until=500.0)
    assert schedd.status(jid).state == COMPLETED


def test_remove_idle_job():
    sim, pool, submit, schedd = make_env()
    jid = schedd.submit_simple("alice", runtime=30.0)
    assert schedd.remove(jid)
    sim.run(until=200.0)
    assert schedd.status(jid).state == "REMOVED"


def test_idle_jobs_go_by_priority_then_submit_time_then_queue_order():
    """What the negotiator is offered: higher JobPrio first, then earlier
    submission, then queue order -- not job-id string order ("10.0" <
    "2.0") -- as one immutable {job_id: sealed ad} mapping."""
    sim = Simulator(seed=2)
    Network(sim, latency=0.02, jitter=0.0)
    schedd = Schedd(Host(sim, "submit"))
    early = [schedd.submit_simple("alice", runtime=10.0) for _ in range(12)]
    sim.run(until=5.0)
    late = [schedd.submit_simple("alice", runtime=10.0) for _ in range(3)]
    schedd.set_job_prio(late[1], 5)
    schedd.set_job_prio(early[7], 5)
    schedd.hold(early[2])
    schedd.release(early[2])        # idle again, at its place in the queue
    schedd.hold(early[4])           # not idle
    answer = schedd.handle_get_idle_jobs(None)
    assert list(answer) == (
        [early[7], late[1]]
        + [jid for i, jid in enumerate(early) if i not in (4, 7)]
        + [late[0], late[2]])
    assert isinstance(answer, FrozenDict)
    assert all(ad is schedd.status(jid).ad for jid, ad in answer.items())


def test_a_prio_raised_while_held_orders_the_job_after_release():
    """The idle order is kept per job from when it last became idle: a
    condor_prio on a held job takes effect when it is released."""
    sim = Simulator(seed=2)
    Network(sim, latency=0.02, jitter=0.0)
    schedd = Schedd(Host(sim, "submit"))
    ids = [schedd.submit_simple("alice", runtime=10.0) for _ in range(4)]
    schedd.hold(ids[3])
    schedd.set_job_prio(ids[3], 7)
    assert list(schedd.handle_get_idle_jobs(None)) == ids[:3]
    schedd.release(ids[3])
    assert list(schedd.handle_get_idle_jobs(None)) == [ids[3]] + ids[:3]
    assert schedd.handle_get_idle_jobs(None)[ids[3]].get("JobPrio") == 7


def test_a_vacated_job_is_offered_again_at_its_queue_place():
    sim, pool, submit, schedd = make_env(workers=1, cycle=10.0)
    ids = [schedd.submit_simple("alice", runtime=500.0) for _ in range(4)]
    sim.run(until=60.0)
    [running] = [jid for jid in ids if schedd.status(jid).state == RUNNING]
    assert running == ids[0]
    assert list(schedd.handle_get_idle_jobs(None)) == ids[1:]
    assert schedd.vacate_job(running)
    sim.run(until=61.0)
    assert schedd.status(running).state == IDLE
    assert list(schedd.handle_get_idle_jobs(None)) == ids
