"""CLAIM-CRED -- §4.3: credential expiry management.

"A long-lived computation must be able to deal with credential
expiration": jobs are held (never lost, never run with bad credentials)
and e-mail goes out; refreshing -- by hand or automatically from MyProxy
-- releases the holds and re-forwards the fresh proxy to every remote
JobManager.

Three policies over an identical workload: jobs submitted before and
after the proxy's expiry, plus one long job submitted first that is
still running when either refresh comes, so the refresh re-forwards a
proxy to its JobManager:

* no refresh: post-expiry jobs stay HELD (safe, stuck);
* manual refresh (grid-proxy-init after a delay): holds release then;
* MyProxy auto-refresh: the agent never lets the proxy lapse.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import drain

PROXY_LIFETIME = 900.0
N_PER_PHASE = 3
#: outlasts the MyProxy refresh (at expiry) and the manual one (expiry
#: + 800 s)
LONG_RUNTIME = 2500.0
N_JOBS = 2 * N_PER_PHASE + 1


def run_policy(policy: str):
    tb = GridTestbed(TestbedConfig(seed=702, use_gsi=True,
                     with_myproxy=(policy == "myproxy")))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=12))
    agent = tb.add_agent(AgentSpec("user", proxy_lifetime=PROXY_LIFETIME,
                         myproxy=(policy == "myproxy"),
                         warn_threshold=300.0))
    ids = []

    def workload():
        # phase 1: while the proxy is fresh
        ids.append(agent.submit(JobDescription(runtime=LONG_RUNTIME),
                                resource="site-gk"))
        for _ in range(N_PER_PHASE):
            ids.append(agent.submit(JobDescription(runtime=300.0),
                                    resource="site-gk"))
        # phase 2: submitted after expiry
        yield tb.sim.timeout(PROXY_LIFETIME + 200.0)
        for _ in range(N_PER_PHASE):
            ids.append(agent.submit(JobDescription(runtime=300.0),
                                    resource="site-gk"))
        if policy == "manual":
            yield tb.sim.timeout(600.0)
            fresh = tb.users["user"].proxy(now=tb.sim.now,
                                           lifetime=12 * 3600.0)
            agent.refresh_proxy(fresh)

    tb.sim.spawn(workload())
    drain(tb, lambda: len(ids) == N_JOBS and
          all(agent.status(j).is_terminal or
              agent.status(j).state == "HELD" for j in ids)
          and tb.sim.now > PROXY_LIFETIME + 1500.0,
          cap=10**4, chunk=500.0)

    done = sum(1 for j in ids if agent.status(j).is_complete)
    held = sum(1 for j in ids if agent.status(j).state == "HELD")
    warn = len(agent.notifier.emails_about("credential expiry warning"))
    held_mail = len(agent.notifier.emails_about("held"))
    refreshes = sum(len(tb.sim.trace.select("credmon", event, user="user"))
                    for event in ("refreshed", "myproxy_refreshed"))
    reforwards = len(tb.sim.trace.select("credmon", "reforwarded"))
    return {
        "policy": policy,
        "done": f"{done}/{N_JOBS}",
        "held at end": held,
        "warning mails": warn,
        "held mails": held_mail,
        "refreshes": refreshes,
        "re-forwards": reforwards,
    }


def run_all():
    return [run_policy(p) for p in ("no-refresh", "manual", "myproxy")]


def test_claim_credentials(benchmark, report):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    report.table(
        "CLAIM-CRED: proxy lifetime 900s; 3 jobs before + 3 after expiry, "
        "1 running across the refresh",
        rows, order=["policy", "done", "held at end", "warning mails",
                     "held mails", "refreshes", "re-forwards"])
    by = {r["policy"]: r for r in rows}
    # no refresh: the short phase-1 jobs finish; the long one (held at
    # expiry) and the phase-2 jobs stay held + mail sent
    assert by["no-refresh"]["done"] == f"{N_PER_PHASE}/{N_JOBS}"
    assert by["no-refresh"]["held at end"] == N_PER_PHASE + 1
    assert by["no-refresh"]["held mails"] >= 1
    assert by["no-refresh"]["warning mails"] >= 1
    assert by["no-refresh"]["re-forwards"] == 0
    # manual refresh: everything eventually completes, and the fresh
    # proxy reaches the long job's JobManager
    assert by["manual"]["done"] == f"{N_JOBS}/{N_JOBS}"
    assert by["manual"]["refreshes"] >= 1
    assert by["manual"]["re-forwards"] >= 1
    # myproxy: everything completes with zero user action
    assert by["myproxy"]["done"] == f"{N_JOBS}/{N_JOBS}"
    assert by["myproxy"]["refreshes"] >= 1
    assert by["myproxy"]["re-forwards"] >= 1
    assert by["myproxy"]["held at end"] == 0
