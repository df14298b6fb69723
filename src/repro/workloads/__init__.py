"""Workloads: the paper's three experiences plus synthetic load.

The Master-Worker QAP classes of Experience 1 are not re-exported here:
import them from :mod:`repro.workloads.lap` and
:mod:`repro.workloads.masterworker`, the only modules that need numpy.
"""

from .cms import CMSBookkeeping, CMSConfig, build_cms_dag
from .gaussian import GaussianJobConfig, expected_output, gaussian_program
from .synthetic import saturate

__all__ = [
    "CMSBookkeeping", "CMSConfig", "GaussianJobConfig", "build_cms_dag",
    "expected_output", "gaussian_program", "saturate",
]
