"""The DAGMan engine: drives a Dag through a Condor-G agent."""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from ..core.api import CondorGAgent
from ..sim.errors import SimulationError
from ..states import DAG_EDGES, DAG_RECOVER, check_edge
from .dag import Dag, DagNode


@dataclass
class DagContext:
    """What PRE/POST scripts and action nodes see."""

    agent: CondorGAgent
    dag: Dag
    node: DagNode

    @property
    def sim(self):
        return self.agent.sim

    @property
    def host(self):
        return self.agent.host


class DagMan:
    """Submits ready nodes, watches them, retries, runs PRE/POST.

    Like real DAGMan it keeps a **rescue DAG**: when a run ends with
    failures, the set of DONE nodes is written to the submit machine's
    disk under ``name``; a later DagMan with the same ``name`` skips them
    and resumes where the last run stopped.  Success clears the rescue
    record.
    """

    POLL_INTERVAL = 15.0

    def __init__(self, agent: CondorGAgent, dag: Dag, name: str = "dag"):
        dag.validate()
        self.agent = agent
        self.sim = agent.sim
        self.dag = dag
        self.name = name
        self.finished = self.sim.event(name="dag-finished")
        self._outstanding = 0
        self._rescue_ns = agent.host.stable.namespace(
            f"dagman-rescue:{name}")
        self.rescued_nodes = 0
        self._load_rescue()
        self.sim.spawn(self._run(), name="dagman")

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log("dagman", event, **details)

    def _move(self, node: DagNode, state: str, edges=DAG_EDGES) -> None:
        """The one writer (``DAG_EDGES``; a rescue file, ``DAG_RECOVER``)."""
        check_edge(edges, f"dag:{node.name}", node.state, state)
        node.state = state

    # -- rescue ---------------------------------------------------------------
    def _load_rescue(self) -> None:
        record = self._rescue_ns.get("rescue")
        if not record:
            return
        for node_name in record.get("done", []):
            node = self.dag.nodes.get(node_name)
            if node is not None:
                self._move(node, "DONE", DAG_RECOVER)
                self.rescued_nodes += 1
        if self.rescued_nodes:
            self._trace("rescue_loaded", nodes=self.rescued_nodes)

    def _write_rescue(self) -> None:
        done = [n.name for n in self.dag.nodes.values()
                if n.state == "DONE"]
        self._rescue_ns.put("rescue", {"done": done})
        self._trace("rescue_written", nodes=len(done))

    # -- engine ---------------------------------------------------------------
    def _mark_ready(self, names) -> None:
        """WAITING nodes among `names` whose parents are all DONE: READY."""
        for name in names:
            node = self.dag.nodes[name]
            if node.state == "WAITING" and all(
                    self.dag.nodes[p].state == "DONE"
                    for p in self.dag.parents[name]):
                self._move(node, "READY")

    def _run(self):
        self._mark_ready(self.dag.nodes)
        while True:
            launched = False
            ready = [n for n in self.dag.nodes.values()
                     if n.state == "READY"]
            for node in ready:
                self._move(node, "RUNNING")
                self._outstanding += 1
                self.sim.spawn(self._run_node(node),
                               name=f"dagnode:{node.name}")
                launched = True
            if self.dag.is_complete():
                self._finish(success=True)
                return
            if not launched and self._outstanding == 0 and \
                    not any(n.state == "READY"
                            for n in self.dag.nodes.values()):
                # nothing running and nothing to launch: failed nodes
                # block the rest of the graph
                self._finish(success=False)
                return
            yield self.sim.timeout(self.POLL_INTERVAL)

    def _finish(self, success: bool) -> None:
        self._trace("finished", success=success, **self.dag.counts())
        if success:
            self._rescue_ns.delete("rescue")
        else:
            self._write_rescue()
        if not self.finished.triggered and not self.finished._scheduled:
            self.finished.succeed(success)

    def _run_node(self, node: DagNode):
        try:
            while True:
                node.attempts += 1
                ok = yield from self._attempt(node)
                if ok:
                    self._move(node, "DONE")
                    self._trace("node_done", node=node.name,
                                attempts=node.attempts)
                    self._mark_ready(self.dag.children[node.name])
                    return
                if node.attempts > node.retries:
                    self._move(node, "FAILED")
                    self._trace("node_failed", node=node.name,
                                attempts=node.attempts)
                    return
                self._trace("node_retry", node=node.name,
                            attempt=node.attempts)
        finally:
            self._outstanding -= 1

    def _attempt(self, node: DagNode):
        ctx = DagContext(self.agent, self.dag, node)
        if node.pre is not None:
            ok = yield from self._run_script(node.pre, ctx)
            if not ok:
                return False
        if node.action is not None:
            try:
                yield from node.action(ctx)
            except SimulationError:
                raise
            except Exception:  # noqa: BLE001 - node actions may fail
                return False
        elif node.description is not None:
            node.job_id = self.agent.submit(node.description,
                                            resource=node.resource)
            self._trace("node_submitted", node=node.name, job=node.job_id)
            while True:
                yield self.sim.timeout(self.POLL_INTERVAL)
                status = self.agent.status(node.job_id)
                if status.is_terminal:
                    break
            if not status.is_complete:
                return False
        if node.post is not None:
            ok = yield from self._run_script(node.post, ctx)
            if not ok:
                return False
        return True

    def _run_script(self, script, ctx):
        try:
            result = script(ctx)
            if inspect.isgenerator(result):
                result = yield from result
            return result is not False
        except SimulationError:
            raise
        except Exception:  # noqa: BLE001 - scripts may fail
            return False
