from fabmon.simfab.fabric import (  # noqa: F401
    FaultSpec,
    SimConfig,
    SimInvariantViolation,
    SimNetwork,
    SimResult,
    run_sim,
)
