"""One JSON config file shared by all daemons, with per-role sections.

Only the sections a daemon needs have to be present; everything has a
default. See README.md for the full schema and docs/examples for a worked
config. Times in the file are seconds (the wire and stores use ms).
"""

from __future__ import annotations

import json
from pathlib import Path

from fabmon.core import MetricDescriptor, ResourcePath, Status
from fabmon.agent.daemon import AgentConfig
from fabmon.agent.sensors import SensorSpec, default_sensor_specs
from fabmon.probe.checks import ConsistencyRule, default_rules
from fabmon.probe.runner import HostSpec, ProbeConfig, StepSpec
from fabmon.simfab.fabric import FaultSpec, SimConfig

DEFAULT_ENDPOINTS = {
    "agent": "127.0.0.1:9810",
    "directory": "127.0.0.1:9811",
    "importer": "127.0.0.1:9812",
    "http": "127.0.0.1:9800",
    "directory_http": "127.0.0.1:9801",
}


class ConfigError(ValueError):
    pass


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def endpoints(cfg: dict) -> dict:
    eps = dict(DEFAULT_ENDPOINTS)
    eps.update(cfg.get("endpoints", {}))
    return eps


def _descriptor(obj: dict, period: float) -> MetricDescriptor:
    return MetricDescriptor(
        name=obj["name"],
        default_period=obj.get("period_s", period),
        validity_ttl=obj.get("validity_ttl_s", period * 3),
    )


def _sensor_spec(obj: dict, default_period: float) -> SensorSpec:
    period = obj.get("period_s", default_period)
    metrics = [_descriptor(m, period) for m in obj.get("metrics", [])]
    return SensorSpec(
        id=obj.get("id", obj["source"]),
        source=obj["source"],
        metrics=metrics,
        period=period,
        jitter=obj.get("jitter", 0.0),
        command=obj.get("command"),
        timeout=obj.get("timeout_s", 10.0),
        params=obj.get("params", {}),
    )


def agent_config(cfg: dict) -> AgentConfig:
    sect = cfg.get("agent", {})
    eps = endpoints(cfg)
    try:
        host_path = ResourcePath.parse(cfg["host_path"])
    except KeyError:
        raise ConfigError("agent needs a top-level host_path") from None
    period = sect.get("period_s", 30)
    if "sensors" in sect:
        sensors = [_sensor_spec(s, period) for s in sect["sensors"]]
    else:
        sensors = default_sensor_specs(period=period, include_net=bool(sect.get("net_rtt_peer")))
        if sect.get("net_rtt_peer"):
            for spec in sensors:
                if spec.source == "net_rtt":
                    spec.params["peer"] = sect["net_rtt_peer"]
    return AgentConfig(
        host_path=host_path,
        sensors=sensors,
        importer_endpoint=sect.get("importer", eps["importer"]),
        directory_endpoint=sect.get("directory", eps["directory"]),
        listen_endpoint=sect.get("listen", eps["agent"]),
        seed=sect.get("seed", 0),
        spool_capacity=sect.get("spool_capacity", 1024),
        registration_ttl=sect.get("registration_ttl_s", 120),
        emit_self_metrics=sect.get("emit_self_metrics", True),
    )


def _step_spec(obj: dict) -> StepSpec:
    return StepSpec(
        kind=obj["kind"],
        name=obj.get("name", obj["kind"]),
        params=obj.get("params", {}),
        timeout=obj.get("timeout_s", 5.0),
    )


def _rule(obj: dict) -> ConsistencyRule:
    return ConsistencyRule(
        metric=obj["metric"],
        min_value=obj.get("min"),
        max_value=obj.get("max"),
        max_age_s=obj.get("max_age_s"),
        on_violation=Status.parse(obj.get("on_violation", "warn")),
    )


def probe_config(cfg: dict) -> ProbeConfig:
    sect = cfg.get("probe", {})
    eps = endpoints(cfg)
    sites: dict[str, list[HostSpec]] = {}
    for site, hosts in sect.get("sites", {}).items():
        sites[site] = [
            HostSpec(path=ResourcePath.parse(h["path"]), endpoint=h["endpoint"]) for h in hosts
        ]
    if not sites:
        raise ConfigError("probe needs at least one site in probe.sites")
    period = sect.get("cycle_period_s", 300)
    if "sequence" in sect:
        sequence = [_step_spec(s) for s in sect["sequence"]]
    else:
        sequence = [
            StepSpec(kind="tcp_connect", name="connect"),
            StepSpec(kind="directory_query", name="lookup", params={"metric": "cpu.load1"}),
            StepSpec(kind="consistency", name="consistency"),
            StepSpec(kind="latest_freshness", name="freshness",
                     params={"metric": "cpu.load1", "max_age_s": 3 * sect.get("metric_period_s", 30)}),
        ]
    rules = [_rule(r) for r in sect["rules"]] if "rules" in sect else default_rules()
    return ProbeConfig(
        sites=sites,
        sequence=sequence,
        rules=rules,
        cycle_period_s=period,
        fanout=sect.get("fanout", 16),
        directory_endpoint=sect.get("directory", eps["directory"]),
    )


def sim_config(cfg: dict) -> SimConfig:
    sect = cfg.get("sim", {})
    faults = tuple(
        FaultSpec(
            kind=f["kind"],
            target=f["target"],
            t0_ms=f["t0_ms"],
            t1_ms=f["t1_ms"],
            parameter=f.get("parameter", 0.0),
        )
        for f in sect.get("faults", [])
    )
    return SimConfig(
        n_hosts=sect.get("hosts", 10),
        n_sites=sect.get("sites", 2),
        metrics=tuple(sect.get("metrics", SimConfig.metrics)),
        period_s=sect.get("period_s", 30),
        jitter=sect.get("jitter", 0.1),
        duration_s=sect.get("duration_s", 300),
        seed=sect.get("seed", 1),
        probe_period_s=sect.get("probe_period_s", 300),
        spool_capacity=sect.get("spool_capacity", 256),
        faults=faults,
    )
