"""Blackbox probing: test sequences per host, rolled up per site.

Steps run strictly in order within a host; a failed connect marks the host
unreachable and skips the rest. Hosts run concurrently up to the configured
fanout. Failures are data, never exceptions: every configured host appears
in every cycle's snapshot with a status and a transcript.

Built-in step kinds:
    tcp_connect        dial the host's agent endpoint and close the channel
    directory_query    expect the directory to hold a metric for this host
    consistency        evaluate the consistency rules over fetched values
    latest_freshness   bound the age of the newest sample of one metric
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from fabmon.core import Clock, MetricSample, ResourcePath, Status, combine_status
from fabmon.probe.checks import ConsistencyRule, consistency_check
from fabmon.probe.snapshot import SiteReport, Snapshot
from fabmon.wire.pool import SessionPool
from fabmon.wire.session import LatestResult, ProtocolViolation, RequestError

STEP_KINDS = ("tcp_connect", "directory_query", "consistency", "latest_freshness")

# metric -> the text view's field for it, in query order
DISPLAY_METRICS = {"cpu.load1": "cpu_load1", "sys.uptime_s": "uptime_s", "sys.idle_s": "idle_s"}


@dataclass(frozen=True)
class StepSpec:
    kind: str
    name: str
    params: dict = field(default_factory=dict)
    timeout: float = 5.0

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass
class TestStep:
    name: str
    status: Status
    transcript: list[str]
    started_at: int
    duration_ms: int

    def __post_init__(self):
        if self.status in (Status.FAIL, Status.UNREACHABLE) and not self.transcript:
            raise ValueError(f"step {self.name} failed without a transcript")


@dataclass(frozen=True)
class HostSpec:
    path: ResourcePath
    endpoint: str


@dataclass
class HostReport:
    host: ResourcePath
    steps: list[TestStep]
    combined: Status
    values: dict = field(default_factory=dict)  # display values for the text view
    duration_ms: int = 0


@dataclass
class ProbeConfig:
    sites: dict[str, list[HostSpec]]
    sequence: list[StepSpec]
    rules: list[ConsistencyRule] = field(default_factory=list)
    cycle_period_s: int = 300
    fanout: int = 16
    directory_endpoint: str = ""


class ProbeRunner:
    def __init__(self, config: ProbeConfig, clock: Clock, dial: Callable):
        self.config = config
        self.clock = clock
        self.dial = dial
        self.pool = SessionPool(dial, "consumer", "probe")
        self._host = threading.local()  # the host this thread is probing

    # -- directory access ---------------------------------------------------

    def _query_latest(self, path, metric) -> tuple[Optional[LatestResult], str]:
        """(result, error detail); result None means the query itself failed.

        Once a query of this host fails on transport, the host's later
        queries fail with the same detail and do not dial again.
        """
        if not self.config.directory_endpoint:
            return None, "no directory configured"
        if self._host.failure:
            return None, self._host.failure
        try:
            return self.pool.call(
                self.config.directory_endpoint, lambda c: c.query_latest(path, metric)), ""
        except RequestError as exc:
            return None, str(exc)
        except (OSError, ProtocolViolation) as exc:
            self._host.failure = str(exc)
            return None, self._host.failure

    def close(self) -> None:
        """Close the held directory sessions."""
        self.pool.close()

    # -- steps ----------------------------------------------------------------

    def _run_step(self, step: StepSpec, host: HostSpec, now: int) -> TestStep:
        lines: list[str] = []

        if step.kind == "tcp_connect":
            endpoint = step.params.get("endpoint", host.endpoint)
            try:
                self.dial(endpoint, timeout=step.timeout).close()
            except (OSError, ValueError) as exc:
                status = Status.UNREACHABLE
                lines.append(f"{step.name}: cannot reach {endpoint}: {exc}")
            else:
                status = Status.PASS
                lines.append(f"{step.name}: connected to {endpoint}")

        elif step.kind == "directory_query":
            metric = step.params.get("metric", "cpu.load1")
            expect_present = step.params.get("expect_present", True)
            result, err = self._query_latest(host.path, metric)
            if result is None:
                status = Status.FAIL
                lines.append(f"{step.name}: query {host.path}/{metric} failed: {err}")
            elif result.absent:
                if expect_present:
                    status = Status.FAIL
                    lines.append(f"{step.name}: no value for {host.path}/{metric}")
                else:
                    status = Status.PASS
                    lines.append(f"{step.name}: {host.path}/{metric} absent as expected")
            else:
                status = Status.PASS
                stale = " (stale)" if result.stale else ""
                lines.append(
                    f"{step.name}: {host.path}/{metric} = {result.sample.value}{stale}")

        elif step.kind == "consistency":
            rules = step.params.get("rules", self.config.rules)
            observed: list[tuple[MetricSample, bool]] = []
            for metric in sorted({r.metric for r in rules}):
                result, err = self._query_latest(host.path, metric)
                if result is None:
                    lines.append(f"{step.name}: fetch {metric} failed: {err}")
                elif result.sample is not None:
                    observed.append((result.sample, result.stale))
            violations = consistency_check(observed, rules, now)
            if violations:
                status = combine_status(v.rule.on_violation for v in violations)
                for v in violations:
                    lines.append(f"{step.name}: violation: {v.describe()}")
            else:
                status = Status.PASS
                lines.append(f"{step.name}: {len(observed)} values within bounds")

        elif step.kind == "latest_freshness":
            metric = step.params.get("metric", "cpu.load1")
            max_age_s = step.params.get("max_age_s", 300)
            result, err = self._query_latest(host.path, metric)
            if result is None or result.absent:
                status = Status.FAIL
                why = err or "no sample at all"
                lines.append(f"{step.name}: no fresh {metric} for {host.path}: {why}")
            elif result.stale:
                status = Status.FAIL
                lines.append(f"{step.name}: {metric} served stale")
            else:
                age_s = (now - result.sample.timestamp) / 1000.0
                if age_s > max_age_s:
                    status = Status.FAIL
                    lines.append(f"{step.name}: {metric} is {age_s:.1f}s old, limit {max_age_s}s")
                else:
                    status = Status.PASS
                    lines.append(f"{step.name}: {metric} age {age_s:.1f}s within {max_age_s}s")

        else:  # pragma: no cover - StepSpec validates kinds
            raise AssertionError(step.kind)

        return TestStep(
            name=step.name, status=status, transcript=lines,
            started_at=now, duration_ms=self.clock.now() - now)

    def run_test_sequence(self, host: HostSpec) -> HostReport:
        """Run all steps against one host; connect failure short-circuits."""
        self._host.failure = ""
        steps: list[TestStep] = []
        unreachable = False
        for spec in self.config.sequence:
            now = self.clock.now()
            if unreachable:
                steps.append(TestStep(
                    name=spec.name, status=Status.UNREACHABLE,
                    transcript=[f"{spec.name}: skipped, host unreachable"],
                    started_at=now, duration_ms=0))
                continue
            step = self._run_step(spec, host, now)
            steps.append(step)
            if spec.kind == "tcp_connect" and step.status is Status.UNREACHABLE:
                unreachable = True
        values = self._display_values(host)
        return HostReport(
            host=host.path,
            steps=steps,
            combined=combine_status(s.status for s in steps),
            values=values,
            duration_ms=sum(s.duration_ms for s in steps),
        )

    def _display_values(self, host: HostSpec) -> dict:
        """The dynamic numbers the text view shows: load, uptime, idle, age."""
        values: dict = {"cpu_load1": None, "uptime_s": None, "idle_s": None, "age_s": None}
        for metric, name in DISPLAY_METRICS.items():
            result, _ = self._query_latest(host.path, metric)
            if result is None or result.sample is None:
                continue
            values[name] = result.sample.value
            if metric == "cpu.load1":
                values["age_s"] = round((self.clock.now() - result.sample.timestamp) / 1000.0, 3)
        return values

    # -- cycles -------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> Snapshot:
        """Probe every host, up to fanout at a time; fanout 1 runs them in order."""
        started_at = self.clock.now()
        site_reports = []
        fanout = self.config.fanout
        with ThreadPoolExecutor(fanout) if fanout > 1 else nullcontext() as workers:
            run = workers.map if workers else map
            for site in sorted(self.config.sites):
                hosts = sorted(self.config.sites[site], key=lambda h: h.path.components)
                reports = list(run(self.run_test_sequence, hosts))
                site_reports.append(SiteReport(
                    site=site,
                    hosts=reports,
                    combined=combine_status(r.combined for r in reports),
                    cycle_started_at=started_at,
                ))
        return Snapshot(
            cycle=cycle,
            started_at=started_at,
            completed_at=self.clock.now(),
            sites=site_reports,
        )
