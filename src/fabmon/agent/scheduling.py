"""Sampling schedule with seeded jitter.

Each sensor fires when now >= last_run + period * (1 +/- jitter); the jitter
draw comes from a per-sensor generator seeded from (agent seed, host path,
sensor id), so a simulated clock plus a fixed seed replays the exact same
schedule. Jitter spreads sensors out so a fleet of agents does not stampede
the importer in lockstep; the host path is in the seed because a fleet
shares one config, seed included.
"""

from __future__ import annotations

import hashlib
import random

from fabmon.agent.sensors import SensorSpec


def _sensor_rng(seed: int, host: str, sensor_id: str) -> random.Random:
    digest = hashlib.blake2b(f"{seed}|{host}|{sensor_id}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


class SensorSchedule:
    def __init__(self, specs: list[SensorSpec], start_ms: int, seed: int = 0, host: str = ""):
        self._specs = {s.id: s for s in specs}
        self._rng = {s.id: _sensor_rng(seed, host, s.id) for s in specs}
        self._next: dict[str, int] = {}
        for spec in specs:
            self._next[spec.id] = start_ms + self._interval(spec)

    def _interval(self, spec: SensorSpec) -> int:
        factor = 1.0
        if spec.jitter:
            factor += self._rng[spec.id].uniform(-spec.jitter, spec.jitter)
        return max(1, int(round(spec.period * 1000 * factor)))

    def due(self, now: int) -> list[str]:
        """Sensor ids due at now, in spec order; does not reschedule."""
        return [sid for sid in self._specs if now >= self._next[sid]]

    def mark_run(self, sensor_id: str, now: int) -> None:
        self._next[sensor_id] = now + self._interval(self._specs[sensor_id])

    def next_due_time(self) -> int:
        return min(self._next.values())
