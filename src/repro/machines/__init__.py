"""Machine-description subsystem: per-PU profiles, presets, topology.

* :class:`~repro.machines.spec.MachineSpec` — a named, hashable,
  schema-versioned machine: per-PU :class:`~repro.machines.spec
  .PUProfile` overrides (issue/fetch width, FU counts, per-opclass
  latency extras), ring/ARB topology, and the inter-task predictor
  kind (``path`` | ``gshare`` | ``hybrid``).
* :mod:`~repro.machines.registry` — named presets (``paper-4x2``,
  ``big-little-8``, ``manycore-32/64/128``, ...), each validated at
  import, resolved through :func:`resolve_machine`.

``SimConfig(machine="big-little-8")`` resolves through this package;
both simulation engines honour the per-PU profiles, and a spec
whose profiles inherit everything is bit-identical to the legacy
homogeneous configuration.
"""

from repro.machines.registry import (
    MACHINE_PRESETS,
    arb_entries_for,
    describe_machines,
    get_machine,
    homogeneous,
    machine_names,
    resolve_machine,
    ring_hop_for,
)
from repro.machines.spec import (
    LAT_EXTRA_CLASSES,
    PREDICTOR_KINDS,
    SCHEMA_VERSION,
    MachineSpec,
    MachineSpecError,
    PUProfile,
    check_pu_count,
    validate_machine,
    with_predictor,
)

__all__ = [
    "LAT_EXTRA_CLASSES",
    "MACHINE_PRESETS",
    "MachineSpec",
    "MachineSpecError",
    "PREDICTOR_KINDS",
    "PUProfile",
    "SCHEMA_VERSION",
    "arb_entries_for",
    "check_pu_count",
    "describe_machines",
    "get_machine",
    "homogeneous",
    "machine_names",
    "resolve_machine",
    "ring_hop_for",
    "validate_machine",
    "with_predictor",
]
