"""DAG model: nodes, dependencies, retries, PRE/POST scripts.

Condor-G's CMS experience (paper §6) is driven by DAGs of jobs ("A
two-node DAG submitted to a Condor-G agent at Caltech triggers 100
simulation jobs...  The execution of these jobs is also controlled by a
DAG that makes sure that local disk buffers do not overflow and that all
events produced are transferred via GridFTP...").

A node's payload is either a :class:`~repro.core.api.JobDescription`
(submitted through the agent) or an ``action`` generator (arbitrary
simulated work such as a GridFTP transfer).  PRE/POST scripts are
generators run around the node; a failing POST fails the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class DagError(ValueError):
    """Structural problem with a DAG (duplicate node, cycle, ...)."""


@dataclass
class DagNode:
    name: str
    description: Any = None          # JobDescription for agent submission
    resource: str = ""               # gatekeeper contact (grid universe)
    action: Optional[Callable] = None  # generator(ctx) alternative payload
    pre: Optional[Callable] = None   # generator(ctx) before the node
    post: Optional[Callable] = None  # generator(ctx) after the node
    retries: int = 0
    # filled by DAGMan:
    state: str = "WAITING"           # WAITING|READY|RUNNING|DONE|FAILED
    attempts: int = 0
    job_id: str = ""


class Dag:
    def __init__(self) -> None:
        self.nodes: dict[str, DagNode] = {}
        self.children: dict[str, list[str]] = {}
        self.parents: dict[str, list[str]] = {}

    def add_node(self, node: DagNode) -> DagNode:
        if node.name in self.nodes:
            raise DagError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self.children.setdefault(node.name, [])
        self.parents.setdefault(node.name, [])
        return node

    def add_edge(self, parent: str, child: str) -> None:
        for name in (parent, child):
            if name not in self.nodes:
                raise DagError(f"unknown node {name!r}")
        self.children[parent].append(child)
        self.parents[child].append(parent)

    def add_dependency(self, parents, children) -> None:
        """PARENT p1 p2 CHILD c1 c2 semantics."""
        if isinstance(parents, str):
            parents = [parents]
        if isinstance(children, str):
            children = [children]
        for p in parents:
            for c in children:
                self.add_edge(p, c)

    def validate(self) -> None:
        """Raises DagError on cycles."""
        state: dict[str, int] = {}

        def visit(name: str) -> None:
            mark = state.get(name, 0)
            if mark == 1:
                raise DagError(f"cycle through {name!r}")
            if mark == 2:
                return
            state[name] = 1
            for child in self.children[name]:
                visit(child)
            state[name] = 2

        for name in self.nodes:
            visit(name)

    def is_complete(self) -> bool:
        return all(n.state == "DONE" for n in self.nodes.values())

    def has_failed(self) -> bool:
        return any(n.state == "FAILED" for n in self.nodes.values())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for node in self.nodes.values():
            out[node.state] = out.get(node.state, 0) + 1
        return out
