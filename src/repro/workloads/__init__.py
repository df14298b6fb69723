"""Workloads: the paper's three experiences plus synthetic load."""

from .cms import CMSBookkeeping, CMSConfig, build_cms_dag
from .gaussian import GaussianJobConfig, expected_output, gaussian_program
from .lap import (
    BBNode,
    BBResult,
    QAPBranchAndBound,
    QAPInstance,
    gilmore_lawler_bound,
    lap_solve,
)
from .masterworker import Master, MWTask, QAPMaster, SyntheticMaster
from .synthetic import saturate

__all__ = [
    "BBNode", "BBResult", "CMSBookkeeping", "CMSConfig",
    "GaussianJobConfig", "Master", "MWTask", "QAPBranchAndBound",
    "QAPInstance", "QAPMaster", "SyntheticMaster", "build_cms_dag",
    "expected_output", "gaussian_program", "gilmore_lawler_bound",
    "lap_solve", "saturate",
]
