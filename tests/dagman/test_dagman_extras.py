"""DAGMan extras: rescue DAGs."""

from repro import GridTestbed, JobDescription
from repro.dagman import Dag, DagMan, DagNode
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=66):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    return tb


def run_dag(tb, dagman, cap=10**5, chunk=1000.0):
    while not dagman.finished.triggered and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + chunk)
    tb.sim.run(until=tb.sim.now + chunk)


class TestRescue:
    def build(self, fail_b=True):
        dag = Dag()
        dag.add_node(DagNode("a", description=JobDescription(runtime=20.0),
                             resource="wisc-gk"))
        dag.add_node(DagNode(
            "b",
            description=JobDescription(runtime=20.0,
                                       exit_code=1 if fail_b else 0),
            resource="wisc-gk"))
        dag.add_node(DagNode("c", description=JobDescription(runtime=20.0),
                             resource="wisc-gk"))
        dag.add_edge("a", "c")
        dag.add_edge("b", "c")
        return dag

    def test_failed_run_writes_rescue_and_resume_skips_done(self):
        tb = make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag1 = self.build(fail_b=True)
        dm1 = DagMan(agent, dag1, name="physics")
        run_dag(tb, dm1)
        assert dm1.finished.value is False
        assert dag1.nodes["a"].state == "DONE"
        assert dag1.nodes["b"].state == "FAILED"
        assert dag1.nodes["c"].state == "WAITING"
        # resubmit a corrected DAG under the same name: 'a' is rescued
        dag2 = self.build(fail_b=False)
        dm2 = DagMan(agent, dag2, name="physics")
        assert dm2.rescued_nodes == 1
        assert dag2.nodes["a"].state == "DONE"
        run_dag(tb, dm2)
        assert dm2.finished.value is True
        assert dag2.is_complete()
        # node a ran exactly once across both campaigns
        a_runs = [e for e in agent.userlog.events
                  if e.event == "execute"]
        # 2 successes run1 (a, b-fail retried... b attempts) -- instead
        # check job count: dag2's 'a' never submitted a job
        assert dag2.nodes["a"].job_id == ""

    def test_successful_run_clears_rescue(self):
        tb = make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag1 = self.build(fail_b=False)
        dm1 = DagMan(agent, dag1, name="clean")
        run_dag(tb, dm1)
        assert dm1.finished.value is True
        dag2 = self.build(fail_b=False)
        dm2 = DagMan(agent, dag2, name="clean")
        assert dm2.rescued_nodes == 0

    def test_rescue_survives_submit_machine_crash(self):
        tb = make_tb()
        agent = tb.add_agent(AgentSpec("alice"))
        dag1 = self.build(fail_b=True)
        dm1 = DagMan(agent, dag1, name="durable")
        run_dag(tb, dm1)
        agent.host.crash()
        agent.host.restart()
        # a fresh DagMan on the same host still sees the rescue record
        dag2 = self.build(fail_b=False)
        dm2 = DagMan(agent, dag2, name="durable")
        assert dm2.rescued_nodes == 1
