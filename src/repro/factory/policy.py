"""The declarative per-site autoscaling policy.

A :class:`FactoryPolicy` is pure configuration -- frozen, hashable,
comparable -- so it can live inside :class:`repro.grid.config.SiteSpec`
(``SiteSpec.factory``) and travel with a :class:`TestbedConfig` value.
The :class:`~repro.factory.daemon.GlideInFactory` control loop reads it;
nothing here imports simulator machinery.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FactoryPolicy:
    """How one site's glidein pool grows and shrinks.

    Provisioning: the factory keeps no more than ``max_glideins``
    allocations alive at the site, and when the pool's idle-job backlog
    exceeds the fleet's idle capacity it submits up to ``max_step`` new
    glideins per control cycle (one cycle every ``interval`` seconds),
    at most once per ``scale_up_cooldown``.
    Demand is ``ceil(idle_jobs / jobs_per_glidein)``; when the oldest
    idle job has waited longer than ``wait_target`` (the
    time-to-first-job signal), demand is multiplied by the factory's
    ``WAIT_BOOST``.

    Shrinking: with no idle jobs queued, glideins idle longer than
    ``idle_grace`` are retired early (at most once per
    ``scale_down_cooldown``); independently, every glidein
    self-terminates after ``idle_timeout`` of idleness -- the
    paper's "guarding against runaway daemons" backstop.

    Leases: each glidein is an allocation of ``lease`` walltime seconds.
    While the pool still has work, the factory renews a busy glidein
    whose lease expires within the factory's ``RENEW_MARGIN`` by
    provisioning its replacement ahead of the walltime kill (the Shadow
    lease machinery requeues whatever the dying slot was running).
    """

    max_glideins: int = 8
    #: demand divisor: how many queued jobs one glidein is expected to
    #: absorb before more capacity is warranted
    jobs_per_glidein: float = 1.0
    #: newly submitted glideins per site per control cycle, at most
    max_step: int = 4
    scale_up_cooldown: float = 60.0
    scale_down_cooldown: float = 300.0
    #: an idle glidein younger than this is never factory-reaped
    idle_grace: float = 120.0
    #: allocation walltime requested for each glidein
    lease: float = 3600.0
    #: glidein self-shutdown after this much idleness
    idle_timeout: float = 600.0
    #: control-loop period
    interval: float = 30.0
    #: time-to-first-job target: older queued work boosts demand
    wait_target: float = 300.0
