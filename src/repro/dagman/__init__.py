"""DAGMan: dependency-driven job orchestration over the Condor-G agent."""

from .dag import Dag, DagError, DagNode
from .dagman import DagContext, DagMan

__all__ = ["Dag", "DagContext", "DagError", "DagMan", "DagNode"]
