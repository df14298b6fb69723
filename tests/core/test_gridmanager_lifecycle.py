"""The GridManager is the grid universe's executor for the agent's life,
and runs -- callback sink registered, loops spawned -- only while grid
jobs remain (§4.2: it "terminates once all jobs are complete")."""

import ast
from pathlib import Path

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: what the GridManager alone knows of a site
SITE_STATE = {"inflight", "watchable", "busy_until", "stated", "suspects"}


def test_only_the_gridmanager_touches_a_sites_state():
    touched = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in SITE_STATE:
                touched.add(str(path.relative_to(SRC)))
    assert touched == {"core/gridmanager.py"}


def test_the_callback_sink_is_up_only_while_grid_jobs_remain():
    tb = GridTestbed.from_config(TestbedConfig(
        seed=5, sites=(SiteSpec("wisc", scheduler="pbs", cpus=2),),
        agents=(AgentSpec("alice", personal_pool=False),)))
    agent = tb.agents["alice"]
    gm = agent.gridmanager
    sink = "gramcb:alice"
    assert not gm.running and agent.host.get_service(sink) is None

    first = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    assert agent.host.get_service(sink) is gm
    tb.run_until_quiet()
    assert agent.status(first).state == "DONE"
    assert not gm.running and agent.host.get_service(sink) is None
    assert not gm.sites

    second = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    assert agent.gridmanager is gm
    assert agent.host.get_service(sink) is agent.gridmanager
    tb.run_until_quiet()
    assert agent.status(second).state == "DONE"
    assert agent.host.get_service(sink) is None
    assert [rec.event for rec in tb.sim.trace.select("gridmanager")
            if rec.event in ("start", "exit")] == \
        ["start", "exit", "start", "exit"]
