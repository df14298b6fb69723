"""Matchmaking semantics: Requirements/Rank bilateral match."""

from repro.classads import (
    ClassAd,
    best_match,
    rank_value,
    requirements_met,
    symmetric_match,
)

JOB = """
[
  Owner = "alice";
  ImageSize = 48;
  Requirements = TARGET.Arch == "INTEL" && TARGET.Memory >= MY.ImageSize;
  Rank = TARGET.Mips
]
"""

MACHINE = """
[
  Arch = "INTEL";
  Memory = 64;
  Mips = 100;
  Requirements = TARGET.Owner != "banned"
]
"""


def test_basic_bilateral_match():
    job, machine = ClassAd.parse(JOB), ClassAd.parse(MACHINE)
    assert symmetric_match(job, machine)


def test_job_side_requirement_fails():
    job = ClassAd.parse(JOB)
    small = ClassAd.parse(MACHINE)
    small["Memory"] = 16
    assert not requirements_met(job, small)
    assert not symmetric_match(job, small)


def test_machine_side_requirement_fails():
    job = ClassAd.parse(JOB)
    job["Owner"] = "banned"
    machine = ClassAd.parse(MACHINE)
    assert requirements_met(job, machine)       # job is happy
    assert not requirements_met(machine, job)   # machine is not
    assert not symmetric_match(job, machine)


def test_undefined_requirements_do_not_match():
    """A reference to a missing attribute makes Requirements UNDEFINED,
    which is not true, hence no match -- the key ClassAd safety rule."""
    job = ClassAd.parse('[ Requirements = TARGET.NoSuchAttr > 5 ]')
    machine = ClassAd.parse("[ Memory = 64 ]")
    assert not symmetric_match(job, machine)


def test_missing_requirements_matches_anything():
    assert symmetric_match(ClassAd(), ClassAd())


def test_rank_orders_candidates():
    job = ClassAd.parse(JOB)
    slow = ClassAd.parse(MACHINE)
    slow["Mips"] = 10
    fast = ClassAd.parse(MACHINE)
    fast["Mips"] = 500
    assert rank_value(job, fast) > rank_value(job, slow)
    assert best_match(job, [slow, fast]) is fast


def test_best_match_skips_non_matching():
    job = ClassAd.parse(JOB)
    bad = ClassAd.parse(MACHINE)
    bad["Arch"] = "SPARC"
    bad["Mips"] = 10 ** 9
    ok = ClassAd.parse(MACHINE)
    assert best_match(job, [bad, ok]) is ok


def test_best_match_none_when_nothing_matches():
    job = ClassAd.parse(JOB)
    bad = ClassAd.parse(MACHINE)
    bad["Arch"] = "SPARC"
    assert best_match(job, [bad]) is None


def test_undefined_rank_counts_zero():
    job = ClassAd.parse('[ Rank = TARGET.Missing ]')
    assert rank_value(job, ClassAd()) == 0.0


def test_boolean_rank():
    job = ClassAd.parse('[ Rank = TARGET.Fast ]')
    fast = ClassAd({"Fast": True})
    slow = ClassAd({"Fast": False})
    assert rank_value(job, fast) == 1.0
    assert rank_value(job, slow) == 0.0


def test_best_match_stable_on_ties():
    job = ClassAd()
    a, b = ClassAd({"Name": "a"}), ClassAd({"Name": "b"})
    assert best_match(job, [a, b]) is a


def test_my_refers_to_own_ad_during_target_eval():
    """When evaluating the machine's Requirements, MY is the machine."""
    job = ClassAd.parse('[ JobLoad = 2 ]')
    machine = ClassAd.parse(
        '[ MaxLoad = 1; Requirements = TARGET.JobLoad <= MY.MaxLoad ]')
    assert not requirements_met(machine, job)
    machine2 = ClassAd.parse(
        '[ MaxLoad = 5; Requirements = TARGET.JobLoad <= MY.MaxLoad ]')
    assert requirements_met(machine2, job)


def test_glidein_style_match():
    """The idiom Condor-G GlideIns rely on: startd ads from glided-in
    daemons match locally queued jobs exactly like ordinary pool nodes."""
    glidein_startd = ClassAd.parse("""
    [
      Name = "glidein@remote-node-3";
      Arch = "INTEL"; OpSys = "LINUX";
      Memory = 256; Disk = 10000;
      GlideIn = true;
      Requirements = TARGET.ImageSize <= MY.Memory;
      Rank = 0
    ]
    """)
    job = ClassAd.parse("""
    [
      ImageSize = 100;
      Requirements = TARGET.Arch == "INTEL" && TARGET.OpSys == "LINUX";
      Rank = ifThenElse(TARGET.GlideIn, 10, 0)
    ]
    """)
    assert symmetric_match(job, glidein_startd)
    assert rank_value(job, glidein_startd) == 10.0
    pool_node = ClassAd.parse('[ Arch = "INTEL"; OpSys = "LINUX" ]')
    assert rank_value(job, pool_node) == 0.0      # GlideIn undefined
