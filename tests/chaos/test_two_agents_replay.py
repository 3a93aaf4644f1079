"""The two-agent race, replayed by script (ROADMAP direction 1).

A handover whose answer is lost on the way back to the old agent leaves
the object on that agent's books, while the root and the new agent have
already moved it: two agents.  The seeded Byzantine lane only hits the
race when its schedule happens to corrupt that one answer, so a green
seeded run proves nothing; this replay severs the answer's link outright
and hits it every time.  It is a strict xfail: the day the race is
resolved, the test turns red and the marker must go.
"""

import pytest

from repro.chaos import FaultInjector, LinkFaults
from repro.core import LocationService, build_table2_hierarchy
from repro.core.service import drive_update_envelope
from repro.errors import LocationServiceError
from repro.geo import Point


@pytest.mark.xfail(
    strict=True,
    raises=LocationServiceError,
    reason="ROADMAP direction 1: an unacknowledged handover keeps the object "
    "at the old agent while the new agent admitted it",
)
def test_a_lost_handover_answer_leaves_one_agent():
    svc = LocationService(build_table2_hierarchy(), sighting_ttl=1e9)
    svc.register("o1", Point(100, 100))  # agent root.0
    injector = FaultInjector(svc.network)
    injector.set_link("root", "root.0", LinkFaults(severed=True))
    (outcome,) = svc.run(
        drive_update_envelope(
            svc._reporter(), svc, "root.0", [("o1", Point(1400, 1400), 10.0)],
            timeout=0.5, retries=0, sub_timeout=0.2,
        )
    )
    assert not outcome.ok  # the answer never came back
    injector.clear()
    svc.settle()
    svc.check_consistency()
