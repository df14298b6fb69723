"""Property-based tests: queue persistence and stream-offset invariants.

These are the crash-safety workhorses: whatever is in a queue record
must survive a write/read cycle bit-for-bit, recovered in-flight states
must collapse to safe ones, and the GASS append-offset protocol must
yield the exact stream no matter how chunks are resent or duplicated.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.condor.jobs import CondorJob, job_ad
from repro.core import job as J
from repro.core.job import GridJob
from repro.gram.protocol import GramJobRequest
from repro.gass.files import FileStore, SimFile
from repro.sim.hosts import StableStorage

# -- GridJob round-trip --------------------------------------------------------

grid_states = st.sampled_from([J.UNSUBMITTED, J.SUBMITTING, J.PENDING,
                               J.ACTIVE, J.DONE, J.FAILED, J.HELD])
small_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=12)


@st.composite
def grid_jobs(draw):
    return GridJob(
        job_id=f"gridjob-{draw(st.integers(1, 10**6))}",
        request=GramJobRequest(
            executable_url=draw(small_text),
            runtime=draw(st.floats(0.1, 10**6, allow_nan=False)),
            cpus=draw(st.integers(1, 64)),
        ),
        resource=draw(small_text),
        state=draw(grid_states),
        seq=draw(st.one_of(st.none(), small_text)),
        jmid=draw(small_text),
        contact=draw(small_text),
        attempts=draw(st.integers(0, 10)),
        committed=draw(st.booleans()),
    )


@given(grid_jobs())
@settings(max_examples=120)
def test_gridjob_record_roundtrip_through_stable_storage(job):
    store = StableStorage()
    store.put("q", job.job_id, job.queue_record())
    back = GridJob.from_record(store.get("q", job.job_id))
    assert back.job_id == job.job_id
    assert back.seq == job.seq
    assert back.jmid == job.jmid
    assert back.contact == job.contact
    # phase 1 answered but the commit unproven: the JobManager may be
    # running the job, so the record comes back as one to reconnect to
    # (the probe settles it), never as one to resubmit blind
    in_doubt = bool(job.jmid) and job.state in (J.SUBMITTING, J.PENDING,
                                                J.ACTIVE)
    assert back.committed == (job.committed or in_doubt)
    assert back.request.runtime == job.request.runtime
    # in-flight states collapse to safe ones, everything else is stable
    if job.state == J.SUBMITTING:
        assert back.state == (J.PENDING if back.committed
                              else J.UNSUBMITTED)
    else:
        assert back.state == job.state


@given(grid_jobs())
@settings(max_examples=60)
def test_recovered_job_never_in_submitting(job):
    back = GridJob.from_record(job.queue_record())
    assert back.state != J.SUBMITTING


# -- CondorJob round-trip --------------------------------------------------------

condor_states = st.sampled_from(["IDLE", "MATCHED", "RUNNING",
                                 "COMPLETED", "REMOVED", "HELD"])


@st.composite
def condor_jobs(draw):
    return CondorJob(
        job_id=f"{draw(st.integers(1, 10**6))}.0",
        ad=job_ad(draw(small_text) or "user"),
        runtime=draw(st.floats(0.1, 10**6, allow_nan=False)),
        universe=draw(st.sampled_from(["vanilla", "standard"])),
        state=draw(condor_states),
        progress=draw(st.floats(0.0, 10**6, allow_nan=False)),
        restarts=draw(st.integers(0, 20)),
        ckpt_bytes=draw(st.integers(0, 10**9)),
    )


@given(condor_jobs())
@settings(max_examples=120)
def test_condorjob_record_roundtrip(job):
    back = CondorJob.from_record(job.queue_record())
    assert back.job_id == job.job_id
    assert back.runtime == job.runtime
    assert back.universe == job.universe
    assert back.progress == job.progress
    assert back.restarts == job.restarts
    assert back.ckpt_bytes == job.ckpt_bytes
    if job.state in ("MATCHED", "RUNNING"):
        assert back.state == "IDLE"     # volatile states collapse
    else:
        assert back.state == job.state
    assert back.owner == job.owner


# -- GASS stream offsets ---------------------------------------------------------

@given(st.lists(st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=8), min_size=1, max_size=12),
    st.data())
@settings(max_examples=150)
def test_append_with_offsets_is_duplicate_proof(chunks, data):
    """Replaying any prefix of already-sent chunks never corrupts the
    stream, as long as offsets are honest -- the resend-after-crash
    invariant that GRAM output streaming depends on."""
    store = FileStore()
    expected = ""
    sent = 0
    for chunk in chunks:
        # maybe re-send some earlier suffix first (a retry after a lost
        # ack): the server must drop the overlap
        if sent > 0 and data.draw(st.booleans()):
            back = data.draw(st.integers(1, sent))
            dup_offset = sent - back
            dup_data = expected[dup_offset:]
            current = store.get("f").size if store.exists("f") else 0
            skip = current - dup_offset
            store.append("f", dup_data[skip:] if skip > 0 else dup_data)
        expected += chunk
        current = store.get("f").size if store.exists("f") else 0
        skip = current - sent
        store.append("f", chunk[skip:] if skip > 0 else chunk)
        sent += len(chunk)
    assert store.get("f").data == expected
