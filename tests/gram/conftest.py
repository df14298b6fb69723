"""Shared fixtures: a one-site grid with a gatekeeper, LRM, and client."""

import pytest

from repro.gass import GassServer
from repro.gram import Gatekeeper, Gram2Client
from repro.lrm import PBSCluster
from repro.sim import Host, Network, Simulator


class MiniGrid:
    """One site (gatekeeper + PBS cluster) plus one submit machine."""

    def __init__(self, seed=1, latency=0.05, loss_rate=0.0, slots=4):
        self.sim = Simulator(seed=seed)
        self.net = Network(self.sim, latency=latency, jitter=0.0,
                           loss_rate=loss_rate)
        self.submit = Host(self.sim, "submit")
        self.gk_host = Host(self.sim, "site-gk", site="site")
        self.lrm_host = Host(self.sim, "site-lrm", site="site")
        self.lrm = PBSCluster(self.lrm_host, slots=slots)
        self.gk_host.boot(lambda h: Gatekeeper(
            h, lrm_contact="site-lrm", site="site"))
        self.gass = GassServer(self.submit, bandwidth=0)
        self.client = Gram2Client(self.submit)
        self.callbacks = []
        self._install_callback_sink()

    @property
    def gatekeeper(self):
        return self.gk_host.services["gatekeeper"]

    def _install_callback_sink(self):
        from repro.sim.rpc import Service

        grid = self

        class Sink(Service):
            service_name = "gram-cb"

            def handle_gram_callback(self, ctx, **kw):
                grid.callbacks.append((self.sim.now, kw))

        Sink(self.submit)

    def drive(self, gen, until=None):
        box = {}

        def wrapper():
            try:
                box["value"] = yield from gen
            except Exception as exc:  # noqa: BLE001
                box["error"] = exc

        self.sim.spawn(wrapper())
        self.sim.run(until=until)
        return box


@pytest.fixture
def grid():
    return MiniGrid()
