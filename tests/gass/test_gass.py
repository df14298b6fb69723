"""Tests for GASS staging and streaming."""

import pytest

from repro.gass import (
    GassServer,
    SimFile,
    gass_append,
    gass_get,
    gass_put,
    gass_received,
    make_url,
    parse_url,
)
from repro.sim import Host, Network, RemoteError, Simulator


@pytest.fixture
def env():
    sim = Simulator(seed=5)
    Network(sim, latency=0.01, jitter=0.0)
    submit = Host(sim, "submit")
    remote = Host(sim, "remote")
    server = GassServer(submit, bandwidth=1000.0)
    return sim, submit, remote, server


def drive(sim, gen):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001
            box["error"] = exc

    sim.spawn(wrapper())
    sim.run()
    return box


def test_url_round_trip():
    url = make_url("submit", "gass", "job1/stdin")
    assert url == "gass://submit/gass/job1/stdin"
    assert parse_url(url) == ("submit", "gass", "job1/stdin")


def test_parse_rejects_bad_urls():
    with pytest.raises(ValueError):
        parse_url("http://x/y")
    with pytest.raises(ValueError):
        parse_url("gass://hostonly")


def test_stage_and_get(env):
    sim, submit, remote, server = env
    url = server.stage_in("bin/sim.exe", size=5000)
    box = drive(sim, gass_get(remote, url))
    assert box["value"]["size"] == 5000


def test_get_missing_file_is_remote_error(env):
    sim, submit, remote, server = env
    box = drive(sim, gass_get(remote, server.url("nope")))
    assert isinstance(box["error"], RemoteError)


def test_transfer_pays_bandwidth_time(env):
    sim, submit, remote, server = env
    url = server.stage_in("big", size=10_000)   # 10s at 1000 B/s
    box = drive(sim, gass_get(remote, url))
    assert box["value"]["size"] == 10_000
    assert sim.now >= 10.0


def test_put_then_read_back(env):
    sim, submit, remote, server = env
    url = server.url("out/result")
    drive(sim, gass_put(remote, url, data="hello world"))
    assert server.read("out/result").data == "hello world"


def test_streaming_appends_in_order(env):
    sim, submit, remote, server = env
    url = server.url("job1/stdout")

    def stream():
        total = 0
        for chunk in ("line1\n", "line2\n", "line3\n"):
            total = yield from gass_append(remote, url, chunk, offset=total)
        return total

    box = drive(sim, stream())
    assert box["value"] == 18
    assert server.read("job1/stdout").data == "line1\nline2\nline3\n"


def test_duplicate_append_is_idempotent(env):
    """Resending an already-received chunk (after an ack was lost) must
    not duplicate output -- the offset check drops the overlap."""
    sim, submit, remote, server = env
    url = server.url("job/stdout")

    def stream():
        yield from gass_append(remote, url, "AAAA", offset=0)
        yield from gass_append(remote, url, "AAAA", offset=0)  # dup resend
        yield from gass_append(remote, url, "BBBB", offset=4)

    drive(sim, stream())
    assert server.read("job/stdout").data == "AAAABBBB"


def test_gap_in_stream_rejected(env):
    sim, submit, remote, server = env
    url = server.url("job/stdout")

    def stream():
        yield from gass_append(remote, url, "AAAA", offset=0)
        yield from gass_append(remote, url, "CCCC", offset=100)

    box = drive(sim, stream())
    assert isinstance(box["error"], RemoteError)
    assert "gap" in str(box["error"])


def test_received_reports_progress(env):
    sim, submit, remote, server = env
    url = server.url("job/stdout")

    def stream():
        yield from gass_append(remote, url, "12345", offset=0)
        n = yield from gass_received(remote, url)
        return n

    box = drive(sim, stream())
    assert box["value"] == 5


def test_files_survive_host_restart():
    sim = Simulator(seed=5)
    Network(sim, latency=0.01, jitter=0.0)
    submit = Host(sim, "submit")
    remote = Host(sim, "remote")
    server = submit.boot(GassServer)
    server.stage_in("staged.exe", size=777)

    def scenario():
        yield sim.timeout(1.0)
        submit.crash()
        yield sim.timeout(1.0)
        submit.restart()
        result = yield from gass_get(remote,
                                     "gass://submit/gass/staged.exe")
        return result["size"]

    box = drive(sim, scenario())
    assert box["value"] == 777


def test_nonpersistent_server_loses_files_on_crash():
    sim = Simulator(seed=5)
    Network(sim, latency=0.01, jitter=0.0)
    submit = Host(sim, "submit")
    remote = Host(sim, "remote")
    server = GassServer(submit, persistent=False)
    server.stage_in("volatile", size=1)
    submit.crash()
    submit.restart()
    server2 = GassServer(submit, persistent=False)
    assert not server2.files.exists("volatile")


def test_simfile_append_tracks_size():
    f = SimFile("x", data="ab")
    assert f.size == 2
    f.append("cde")
    assert f.size == 5
    assert f.data == "abcde"
