"""Per-flow ECMP picks the same port in every interpreter.

A switch with ``n`` candidate ports sends an int flow id to port
``flow_id % n`` -- the fluid engine's spine rule
(``scenarios/materialize.py``), negative ids included -- and any other id
by a digest of its ``repr``, so routing does not move with
``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys

from repro.sim.node import Switch
from repro.sim.packet import Packet

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
STRING_IDS = [f"flow-{i}" for i in range(16)]

#: Prints the ports :data:`STRING_IDS` take through a four-way switch.
PROBE = "import json, test_ecmp_hash as t; print(json.dumps(t.route(t.STRING_IDS)))"


class RecordingPort:
    def __init__(self):
        self.flows = []

    def send(self, packet):
        self.flows.append(packet.flow_id)


def route(flow_ids, n_ports=4):
    """The port index each flow id takes through an ``n_ports``-way switch."""
    ports = [RecordingPort() for _ in range(n_ports)]
    switch = Switch("leaf")
    switch.add_route("dst", ports)
    for flow_id in flow_ids:
        switch.receive(Packet(flow_id, "src", "dst", 1500))
    return [next(k for k, p in enumerate(ports) if flow_id in p.flows) for flow_id in flow_ids]


def test_an_int_id_takes_the_fluid_spine_rule():
    ids = [-1, -2, -5, 0, 1, 3, 6, 2**40 + 1]
    assert route(ids) == [flow_id % 4 for flow_id in ids]
    assert route([-1], n_ports=3) == [2]


def test_string_ids_route_alike_under_two_hash_seeds():
    picks = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join((SRC, HERE)))
        out = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
        )
        picks.append(json.loads(out.stdout))
    assert picks[0] == picks[1]
    assert len(set(picks[0])) > 1  # the ids spread over the ports
