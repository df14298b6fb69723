"""Tests for submit-description-file parsing and condor_submit."""

import pytest

from repro import GridTestbed
from repro.classads import ClassAdSyntaxError
from repro.core.submitfile import (
    SubmitFileError,
    parse_submit_file,
    submit_from_file,
)
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

BASIC = """
# a grid job
universe      = grid
executable    = sim.exe
arguments     = -n 42
grid_resource = wisc-gk
runtime       = 300
walltime      = 3600
cpus          = 2
environment   = MODE=fast SEED=7
queue 3
"""


class TestParser:
    def test_basic_fields(self):
        jobs = parse_submit_file(BASIC)
        assert len(jobs) == 3
        description, resource = jobs[0]
        assert resource == "wisc-gk"
        assert description.executable == "sim.exe"
        assert description.runtime == 300.0
        assert description.walltime == 3600.0
        assert description.cpus == 2
        assert description.env == {"MODE": "fast", "SEED": "7"}

    def test_process_expansion(self):
        jobs = parse_submit_file(
            "executable = sweep\n"
            "arguments = --index $(Process)\n"
            "runtime = 10\n"
            "queue 4\n")
        args = [d.arguments for d, _ in jobs]
        assert args == [("--index", "0"), ("--index", "1"),
                        ("--index", "2"), ("--index", "3")]

    def test_bare_queue_means_one(self):
        jobs = parse_submit_file("runtime = 5\nqueue\n")
        assert len(jobs) == 1

    def test_attributes_can_change_between_queues(self):
        jobs = parse_submit_file(
            "runtime = 5\nqueue\n"
            "runtime = 50\nqueue\n")
        assert jobs[0][0].runtime == 5.0
        assert jobs[1][0].runtime == 50.0

    def test_missing_queue_rejected(self):
        with pytest.raises(SubmitFileError, match="queue"):
            parse_submit_file("runtime = 5\n")

    def test_bad_line_rejected(self):
        with pytest.raises(SubmitFileError):
            parse_submit_file("this is not a key value line\nqueue\n")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SubmitFileError, match="unknown"):
            parse_submit_file("frobnicate = 7\nqueue\n")

    def test_bad_queue_count_rejected(self):
        with pytest.raises(SubmitFileError):
            parse_submit_file("runtime = 5\nqueue zero\n")
        with pytest.raises(SubmitFileError):
            parse_submit_file("runtime = 5\nqueue 0\n")

    def test_bad_environment_rejected(self):
        with pytest.raises(SubmitFileError, match="environment"):
            parse_submit_file("environment = NOEQUALS\nqueue\n")

    def test_requirements_for_condor_universe(self):
        jobs = parse_submit_file(
            'universe = standard\n'
            'requirements = TARGET.Memory >= 64\n'
            'rank = TARGET.Mips\n'
            'runtime = 100\n'
            'queue 2\n')
        description, resource = jobs[0]
        assert description.universe == "standard"
        assert "Memory" in description.requirements
        assert resource == ""


class TestEndToEnd:
    def test_condor_submit_runs_the_sweep(self):
        tb = GridTestbed(TestbedConfig(seed=98))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
        agent = tb.add_agent(AgentSpec("alice"))
        ids = submit_from_file(agent,
                               "executable = sweep.exe\n"
                               "arguments = --point $(Process)\n"
                               "grid_resource = wisc-gk\n"
                               "runtime = 60\n"
                               "queue 5\n")
        assert len(ids) == 5
        tb.run_until_quiet(max_time=10**4)
        assert all(agent.status(j).is_complete for j in ids)

    def test_requirements_outside_the_language_fail_the_submit(self):
        """A requirements that calls a function the evaluator does not
        have is refused at submit, naming it: it does not queue a job
        that silently never matches."""
        tb = GridTestbed(TestbedConfig(seed=98))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
        agent = tb.add_agent(AgentSpec("alice"))
        with pytest.raises(ClassAdSyntaxError, match="stringListMember"):
            submit_from_file(agent,
                             "universe = vanilla\n"
                             'requirements = stringListMember("pbs", LRMs)\n'
                             "runtime = 60\n"
                             "queue\n")
        assert agent.statuses() == []
        assert submit_from_file(agent, "universe = vanilla\n"
                                       "runtime = 60\nqueue\n") == ["1.0"]
