from fabmon.probe.checks import ConsistencyRule, Violation, consistency_check  # noqa: F401
from fabmon.probe.runner import (  # noqa: F401
    HostReport,
    HostSpec,
    ProbeConfig,
    ProbeRunner,
    StepSpec,
    TestStep,
)
from fabmon.probe.snapshot import IoFailure, SiteReport, Snapshot, publish_snapshot  # noqa: F401
