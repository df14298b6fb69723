"""The Shadow's lease is a timer that dies with its machine."""

from repro.condor import RUNNING
from repro.condor.shadow import Shadow

from .test_startd import make_env


def test_a_submit_host_crash_silences_the_dead_shadows_lease():
    """``Host.crash`` kills no per-daemon ``crash()`` override: the
    lease tick of a Shadow on a crashed submit machine must stop by
    itself, though the starter's heartbeats stop reaching it."""
    sim, pool, schedd = make_env()
    job_id = schedd.submit_simple("alice", runtime=5000.0)
    sim.run(until=300.0)
    assert schedd.status(job_id).state == RUNNING
    shadow = schedd.host.services[f"shadow:{job_id}"]
    vacated = []
    shadow.on_vacated = lambda *args: vacated.append(args)
    schedd.host.crash()
    crashed = len(sim.trace)
    sim.run(until=300.0 + 5 * Shadow.LEASE_TIMEOUT)
    assert sim.now - shadow.last_heartbeat > shadow.lease_timeout
    assert vacated == []
    assert [r.event for r in list(sim.trace)[crashed:]
            if r.component == f"shadow:{job_id}"] == []
