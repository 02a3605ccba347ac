"""Snapshot assembly and atomic publication.

One snapshot summarizes one probe cycle: per-site rollups, per-host steps
and the dynamic display values. snapshot.json is written via temp file +
rename so an HTTP server never sees a torn or missing file; the previous
snapshot is kept as snapshot.prev.json; transcripts go to
transcripts/<host>/<cycle>.txt before the snapshot that references them,
and those of other cycles are unlinked once TRANSCRIPT_GRACE_S old.

The JSON serialization is canonical (sorted keys, fixed indentation), so a
snapshot built from the same inputs is byte-identical every time.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from fabmon.core import Status, combine_status

if TYPE_CHECKING:  # pragma: no cover
    from fabmon.probe.runner import HostReport

SCHEMA_VERSION = 1

# A transcript neither snapshot references stays this long, so a reader that
# loaded a snapshot just before the next publishes still finds its transcripts.
TRANSCRIPT_GRACE_S = 60


class IoFailure(RuntimeError):
    pass


@dataclass
class SiteReport:
    site: str
    hosts: list["HostReport"]
    combined: Status
    cycle_started_at: int


@dataclass
class Snapshot:
    cycle: int
    started_at: int
    completed_at: int
    sites: list[SiteReport]
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "cycle": self.cycle,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "sites": [
                {
                    "site": sr.site,
                    "status": sr.combined.label,
                    "cycle_started_at": sr.cycle_started_at,
                    "hosts": [
                        {
                            "host": str(hr.host),
                            "status": hr.combined.label,
                            "values": hr.values,
                            "steps": [
                                {
                                    "name": st.name,
                                    "status": st.status.label,
                                    "duration_ms": st.duration_ms,
                                    "transcript_ref": transcript_ref(str(hr.host), self.cycle),
                                }
                                for st in hr.steps
                            ],
                        }
                        for hr in sr.hosts
                    ],
                }
                for sr in self.sites
            ],
        }


def transcript_ref(host_text: str, cycle: int) -> str:
    return f"transcripts/{host_text}/{cycle}.txt"


def snapshot_bytes(snapshot_dict: dict) -> bytes:
    return (json.dumps(snapshot_dict, sort_keys=True, indent=2) + "\n").encode("utf-8")


def verify_rollups(snapshot_dict: dict) -> list[str]:
    """Structural check: every combined status equals the worst of its children."""
    problems = []
    for sr in snapshot_dict["sites"]:
        host_statuses = [Status.parse(h["status"]) for h in sr["hosts"]]
        if Status.parse(sr["status"]) != combine_status(host_statuses):
            problems.append(f"site {sr['site']} rollup mismatch")
        for h in sr["hosts"]:
            step_statuses = [Status.parse(s["status"]) for s in h["steps"]]
            if Status.parse(h["status"]) != combine_status(step_statuses):
                problems.append(f"host {h['host']} rollup mismatch")
    return problems


def publish_snapshot(snapshot: Snapshot, out_dir: str | Path) -> list[Path]:
    """Write transcripts, hard-link the current snapshot.json to prev, then
    rename the new one over it: snapshot.json is never missing. Last, unlink
    the transcripts, past their grace, of every cycle but the two the
    snapshots reference."""
    out = Path(out_dir)
    current = out / "snapshot.json"
    previous = out / "snapshot.prev.json"
    written: list[Path] = []
    keep = {f"{snapshot.cycle}.txt"}
    try:
        out.mkdir(parents=True, exist_ok=True)
        tmp = out / "snapshot.json.tmp"
        tmp.write_bytes(snapshot_bytes(snapshot.to_dict()))
        for sr in snapshot.sites:
            for hr in sr.hosts:
                ref = out / transcript_ref(str(hr.host), snapshot.cycle)
                ref.parent.mkdir(parents=True, exist_ok=True)
                lines = []
                for st in hr.steps:
                    lines.append(f"== {st.name} [{st.status.label}] {st.duration_ms}ms")
                    lines.extend(st.transcript)
                ref.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(ref)
        if current.exists():
            prev_cycle = _cycle_of(current)
            if prev_cycle is not None:
                keep.add(f"{prev_cycle}.txt")
            prev_tmp = out / "snapshot.prev.json.tmp"
            prev_tmp.unlink(missing_ok=True)
            os.link(current, prev_tmp)
            os.replace(prev_tmp, previous)
            written.append(previous)
        os.replace(tmp, current)
        written.append(current)
        _prune_transcripts(out / "transcripts", keep)
    except OSError as exc:
        raise IoFailure(f"cannot publish snapshot to {out}: {exc}") from exc
    return written


def _cycle_of(snapshot_file: Path) -> int | None:
    """The cycle a published snapshot file records; None if it is unreadable."""
    try:
        return json.loads(snapshot_file.read_bytes())["cycle"]
    except (ValueError, KeyError, TypeError):
        return None


def _prune_transcripts(root: Path, keep: set[str]) -> None:
    cutoff = time.time() - TRANSCRIPT_GRACE_S
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".txt") and name not in keep:
                path = os.path.join(dirpath, name)
                if os.stat(path).st_mtime < cutoff:
                    os.unlink(path)
