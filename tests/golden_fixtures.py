"""Fixed inputs for the golden-file tests (snapshot schema, text render)."""

from __future__ import annotations

from fabmon.core import ResourcePath, Status
from fabmon.probe.runner import HostReport, TestStep
from fabmon.probe.snapshot import SiteReport, Snapshot

T0 = 1_600_000_000_000


def _step(name, status, lines, at, dur):
    return TestStep(name=name, status=status, transcript=lines, started_at=at, duration_ms=dur)


def fixed_snapshot() -> Snapshot:
    """Two sites, three hosts, one failure and one unreachable host."""
    bnl_n1 = HostReport(
        host=ResourcePath.parse("bnl/farm/n1"),
        steps=[
            _step("connect", Status.PASS, ["connect: connected to bnl/farm/n1:9810"], T0, 2),
            _step("freshness", Status.PASS, ["freshness: cpu.load1 age 3.0s within 90s"], T0, 1),
        ],
        combined=Status.PASS,
        values={"cpu_load1": 0.42, "uptime_s": 86_400.0, "idle_s": 43_200.0, "age_s": 3.0},
        duration_ms=3,
    )
    bnl_n2 = HostReport(
        host=ResourcePath.parse("bnl/farm/n2"),
        steps=[
            _step("connect", Status.PASS, ["connect: connected to bnl/farm/n2:9810"], T0, 2),
            _step("freshness", Status.FAIL, ["freshness: cpu.load1 is 400.0s old, limit 90s"], T0, 1),
        ],
        combined=Status.FAIL,
        values={"cpu_load1": 1.5, "uptime_s": 7_200.0, "idle_s": None, "age_s": 400.0},
        duration_ms=3,
    )
    uta_n1 = HostReport(
        host=ResourcePath.parse("uta/farm/n1"),
        steps=[
            _step("connect", Status.UNREACHABLE,
                  ["connect: cannot reach uta/farm/n1:9810: connection refused"], T0, 5000),
            _step("freshness", Status.UNREACHABLE,
                  ["freshness: skipped, host unreachable"], T0, 0),
        ],
        combined=Status.UNREACHABLE,
        values={"cpu_load1": None, "uptime_s": None, "idle_s": None, "age_s": None},
        duration_ms=5000,
    )
    return Snapshot(
        cycle=7,
        started_at=T0,
        completed_at=T0 + 5_000,
        sites=[
            SiteReport(site="bnl", hosts=[bnl_n1, bnl_n2], combined=Status.FAIL,
                       cycle_started_at=T0),
            SiteReport(site="uta", hosts=[uta_n1], combined=Status.UNREACHABLE,
                       cycle_started_at=T0),
        ],
    )
