#!/usr/bin/env python3
"""A failure drill: watch Condor-G ride out every §4.2 failure class.

Submits a batch of long jobs to one site, then -- while they run --
crashes a JobManager, reboots the gatekeeper machine, partitions the
network, and reboots the submit machine.  Every job still finishes
exactly once, and the trace shows each recovery decision the paper's
§4.2 describes.

Run:  python examples/fault_tolerance_drill.py
"""

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def main() -> None:
    testbed = GridTestbed(TestbedConfig(seed=13))
    site = testbed.add_site(SiteSpec("site", scheduler="pbs", cpus=8))
    agent = testbed.add_agent(AgentSpec("ops"))
    ids = [agent.submit(JobDescription(runtime=1500.0 + 50 * i),
                        resource=site.contact) for i in range(6)]

    # t=120: one JobManager daemon dies
    def kill_jm():
        yield testbed.sim.timeout(120.0)
        jm = next(s for n, s in site.gk_host.services.items()
                  if n.startswith("jm:"))
        print(f"[t={testbed.sim.now:6.0f}] killing {jm.jmid}")
        jm.crash()

    testbed.sim.spawn(kill_jm())

    # t=400: the whole gatekeeper machine reboots
    testbed.failures.crash_host_at(400.0, site.gk_host, down_for=180.0)

    # t=800: network partition between the desktop and the site
    testbed.failures.partition_at(800.0, agent.host.name,
                                  site.gk_host.name, heal_after=300.0)

    # t=1250: the submit machine itself reboots
    def reboot_submit():
        yield testbed.sim.timeout(1250.0)
        print(f"[t={testbed.sim.now:6.0f}] submit machine crashes")
        agent.host.crash()
        yield testbed.sim.timeout(120.0)
        agent.host.restart()
        print(f"[t={testbed.sim.now:6.0f}] submit machine is back; its "
              f"agent recovered {len(agent.scheduler.jobs)} jobs from "
              f"the persistent queue")

    testbed.sim.spawn(reboot_submit())

    testbed.run_until_quiet(max_time=3 * 10**4)

    print("\nfinal job states:")
    for job_id in ids:
        status = agent.status(job_id)
        print(f"  {status.job_id:<12} {status.state}")
        assert status.state == "DONE"
    executed = [j.state for j in site.lrm.jobs.values()]
    print(f"\nLRM executions at the site: {len(executed)} "
          f"(= {len(ids)} logical jobs; exactly-once held)")
    assert len(executed) == len(ids)

    print("\nrecovery decisions observed in the trace:")
    for event in ("jobmanager_silent", "jobmanager_restarted",
                  "resource_unreachable"):
        n = len(testbed.sim.trace.select("gridmanager", event))
        print(f"  {event:<24} x{n}")
    print("\nOK: all four §4.2 failure classes absorbed.")


if __name__ == "__main__":
    main()
