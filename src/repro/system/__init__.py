"""System context: cameras, transmission, privacy accounting, costs.

The paper's deployment model (§1) has configurable networked cameras that
collect, degrade, and transmit frames to a central query processor, with an
administrator balancing policy goals. This subpackage models that context
so examples and benchmarks can express those goals quantitatively:

- :mod:`repro.system.costs` — model-invocation accounting and the analytic
  profile-generation time model of §5.3.1.
- :mod:`repro.system.executor` — the parallel execution substrate with
  deterministic per-(setting, trial) seed streams.
- :mod:`repro.system.network` — bytes/energy of transmitting degraded
  frames (bandwidth and power goals).
- :mod:`repro.system.privacy` — privacy-exposure metrics of a degradation
  setting (person/face frames revealed).
- :mod:`repro.system.camera` — a camera with degradation knobs.
- :mod:`repro.system.faults` — deterministic, seed-driven fault injection
  (outages, transient failures, frame drop/corruption, stragglers) behind
  a faulty transmission channel.
- :mod:`repro.system.resilience` — retry-with-backoff, per-camera circuit
  breakers, and the fleet health ledger.
- :mod:`repro.system.fleet` — fleets, including the resilient
  :class:`FleetQueryProcessor` that degrades gracefully under faults.
- :mod:`repro.system.administrator` — the administrator persona tying
  preferences to profile-driven choices.
- :mod:`repro.system.telemetry` — process-local metrics, spans, and
  structured logging (off by default; the CLI's ``--telemetry`` enables).
"""

from importlib import import_module

#: Public name -> the ``repro.system`` submodule that defines it (a name
#: equal to its submodule is the submodule itself). Nothing is imported
#: until a name is first read (PEP 562), so ``from repro.system import
#: telemetry`` does not pay for fleet, faults, camera and resilience, and
#: ``Administrator`` (which needs ``repro.core``, a user of this package's
#: cost ledger) imports without a cycle.
_EXPORTS = {
    "Administrator": "administrator",
    "BreakerState": "resilience",
    "Camera": "camera",
    "CameraHealth": "resilience",
    "CameraReport": "fleet",
    "CameraStatus": "fleet",
    "ChannelDelivery": "faults",
    "CircuitBreaker": "resilience",
    "CostModel": "costs",
    "ExecutorConfig": "executor",
    "FaultInjector": "faults",
    "FaultModel": "faults",
    "FaultyChannel": "faults",
    "FleetQueryProcessor": "fleet",
    "FleetReport": "fleet",
    "FleetSentinel": "fleet",
    "FleetSentinelAudit": "fleet",
    "HealthLedger": "resilience",
    "InvocationLedger": "costs",
    "MetricsRegistry": "telemetry",
    "MetricsSnapshot": "telemetry",
    "NullRegistry": "telemetry",
    "ParallelExecutor": "executor",
    "PrivacyReport": "privacy",
    "RetryPolicy": "resilience",
    "SeedKey": "executor",
    "TransmissionModel": "network",
    "child_rng": "executor",
    "child_rngs": "executor",
    "child_seed": "executor",
    "merge_snapshots": "telemetry",
    "normalize_root": "executor",
    "privacy_report": "privacy",
    "setup_logging": "telemetry",
    "telemetry": "telemetry",
    "transmit_with_retry": "faults",
    "trial_chunks": "executor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
