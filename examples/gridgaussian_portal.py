#!/usr/bin/env python3
"""Experience 3 in miniature: the GridGaussian portal.

A portal agent runs Gaussian98 jobs at NCSA under G-Cat: output is
buffered in local scratch and shipped to the Mass Storage System as
partial chunks, so users watch results arrive live -- and an MSS outage
in the middle of the run costs nothing.

Run:  python examples/gridgaussian_portal.py
"""

from repro import GridTestbed, JobDescription
from repro.core.gcat import assemble_chunks
from repro.gridftp import GridFTPServer
from repro.sim import Host
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.workloads import GaussianJobConfig, expected_output, \
    gaussian_program


def main() -> None:
    testbed = GridTestbed(TestbedConfig(seed=9))
    testbed.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=4))
    Host(testbed.sim, "mss").boot(GridFTPServer)
    agent = testbed.add_agent(AgentSpec("portal"))

    config = GaussianJobConfig(iterations=20, seconds_per_iteration=30.0)
    job = agent.submit(
        JobDescription(
            executable="g98",
            runtime=config.iterations * config.seconds_per_iteration,
            walltime=10**5,
            program=gaussian_program(config),
            gcat_mss_url="gsiftp://mss/g98/water-scf",
        ),
        resource="ncsa-gk")

    # a user watches the output grow at the MSS while the job runs
    snapshots = []

    def watcher():
        while True:
            yield testbed.sim.timeout(120.0)
            text, complete = yield from assemble_chunks(
                agent.host, "gsiftp://mss/g98/water-scf")
            snapshots.append((testbed.sim.now, len(text), complete))
            if complete:
                return

    testbed.sim.spawn(watcher())

    # knock the MSS over mid-run: G-Cat buffers locally and catches up
    testbed.failures.crash_host_at(250.0, testbed.sim.hosts["mss"],
                                   down_for=120.0)

    testbed.run_until_quiet(max_time=10**4)
    testbed.sim.run(until=testbed.sim.now + 500.0)  # final watcher pass

    print("GridGaussian portal run:")
    print(f"  job state: {agent.status(job).state}")
    for t, size, complete in snapshots:
        bar = "#" * (size // 200)
        print(f"  t={t:7.0f}s  {size:5d} bytes at MSS "
              f"{'[complete]' if complete else ''} {bar}")

    final, complete = None, False

    def final_read():
        nonlocal final, complete
        final, complete = yield from assemble_chunks(
            agent.host, "gsiftp://mss/g98/water-scf")

    testbed.sim.spawn(final_read())
    testbed.sim.run(until=testbed.sim.now + 300.0)
    assert complete and final == expected_output(config)
    print("\nOK: output grew live at the MSS, survived the outage, and "
          "is byte-exact.")


if __name__ == "__main__":
    main()
