"""Tests for the DAG model, parser, and the DAGMan engine."""

import pytest

from repro import GridTestbed, JobDescription
from repro.dagman import Dag, DagError, DagMan, DagNode
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig




def run_until_dag_done(tb, dag, cap, chunk=2000.0):
    """Advance in chunks; stop soon after the DAG resolves (agent daemons
    otherwise keep the event heap alive to the full horizon)."""
    while not (dag.is_complete() or dag.has_failed()) and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + chunk)
    tb.sim.run(until=tb.sim.now + chunk)

class TestDagModel:
    def test_duplicate_node_rejected(self):
        dag = Dag()
        dag.add_node(DagNode("a"))
        with pytest.raises(DagError):
            dag.add_node(DagNode("a"))

    def test_edge_to_unknown_node_rejected(self):
        dag = Dag()
        dag.add_node(DagNode("a"))
        with pytest.raises(DagError):
            dag.add_edge("a", "missing")

    def test_cycle_detection(self):
        dag = Dag()
        for name in "abc":
            dag.add_node(DagNode(name))
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        dag.add_edge("c", "a")
        with pytest.raises(DagError, match="cycle"):
            dag.validate()


class TestEngine:
    def make_tb(self):
        tb = GridTestbed(TestbedConfig(seed=6))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
        return tb

    def test_linear_chain_runs_in_order(self):
        tb = self.make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag = Dag()
        for name in ("a", "b", "c"):
            dag.add_node(DagNode(name,
                                 description=JobDescription(runtime=30.0),
                                 resource="wisc-gk"))
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        dagman = DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**5)
        assert dag.is_complete()
        ends = {n: agent.status(dag.nodes[n].job_id).end_time
                for n in "abc"}
        starts = {n: agent.status(dag.nodes[n].job_id).start_time
                  for n in "abc"}
        assert ends["a"] <= starts["b"]
        assert ends["b"] <= starts["c"]
        assert dagman.finished.value is True

    def test_diamond_parallelism(self):
        tb = self.make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag = Dag()
        for name in ("src", "l", "r", "sink"):
            dag.add_node(DagNode(name,
                                 description=JobDescription(runtime=50.0),
                                 resource="wisc-gk"))
        dag.add_dependency("src", ["l", "r"])
        dag.add_dependency(["l", "r"], "sink")
        DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**5)
        assert dag.is_complete()
        l = agent.status(dag.nodes["l"].job_id)
        r = agent.status(dag.nodes["r"].job_id)
        # the two middle nodes overlapped
        assert l.start_time < r.end_time and r.start_time < l.end_time

    def test_failed_node_blocks_descendants(self):
        tb = self.make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag = Dag()
        dag.add_node(DagNode("bad",
                             description=JobDescription(runtime=10.0,
                                                        exit_code=1),
                             resource="wisc-gk"))
        dag.add_node(DagNode("after",
                             description=JobDescription(runtime=10.0),
                             resource="wisc-gk"))
        dag.add_edge("bad", "after")
        dagman = DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**5)
        assert dag.nodes["bad"].state == "FAILED"
        assert dag.nodes["after"].state == "WAITING"
        assert dagman.finished.value is False

    def test_retry_eventually_succeeds(self):
        """PRE script fails twice then passes: RETRY absorbs it."""
        tb = self.make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        attempts = {"n": 0}

        def flaky_pre(ctx):
            attempts["n"] += 1
            if attempts["n"] < 3:
                return False
            return True

        dag = Dag()
        dag.add_node(DagNode("flaky",
                             description=JobDescription(runtime=10.0),
                             resource="wisc-gk",
                             pre=flaky_pre, retries=5))
        DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**5)
        assert dag.nodes["flaky"].state == "DONE"
        assert dag.nodes["flaky"].attempts == 3

    def test_action_node_runs_generator(self):
        tb = self.make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        ran = []

        def transfer(ctx):
            yield ctx.sim.timeout(10.0)
            ran.append(ctx.sim.now)

        dag = Dag()
        dag.add_node(DagNode("move", action=transfer))
        DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**4)
        assert dag.is_complete()
        assert ran


class TestCMSPipeline:
    def test_cms_dag_end_to_end(self):
        from repro.gridftp import GridFTPServer
        from repro.sim import Host
        from repro.workloads import CMSConfig, build_cms_dag

        tb = GridTestbed(TestbedConfig(seed=61))
        tb.add_site(SiteSpec("wisc", scheduler="condor", cpus=10))
        tb.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=8))
        repo = GridFTPServer(Host(tb.sim, "ncsa-mss"))
        agent = tb.add_agent(AgentSpec("caltech"))
        config = CMSConfig(
            simulation_site="wisc-gk",
            reconstruction_site="ncsa-gk",
            repository="ncsa-mss",
            n_simulation_jobs=10,
            sim_seconds_per_event=2.0,
            reco_seconds_per_event=0.5,
            buffer_limit_events=10_000,
        )
        dag, books = build_cms_dag(config)
        DagMan(agent, dag)
        run_until_dag_done(tb, dag, cap=10**6)
        assert dag.is_complete()
        assert books.events_simulated == 5000
        assert books.events_shipped == 5000
        assert books.events_reconstructed == 5000
        assert books.buffer_events == 0
        # all event files are at the MSS
        assert len(repo.files._files) == 10
        # reconstruction ran at NCSA after every transfer
        reco = agent.status(dag.nodes["reco"].job_id)
        assert reco.resource == "ncsa-gk"
