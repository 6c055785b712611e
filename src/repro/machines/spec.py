"""Machine descriptions: per-PU profiles composed into named specs.

A :class:`MachineSpec` is the declarative form of one Multiscalar
machine: an ordered tuple of :class:`PUProfile` entries (one per PU
around the ring), ring/ARB topology overrides, and the inter-task
predictor kind.  It is frozen, hashable, and schema-versioned, so it
can ride inside :class:`~repro.sim.config.SimConfig` and participate
in the harness's content hashes exactly like every other config
dataclass.

Profile fields default to ``None`` = *inherit the global SimConfig
value*; a spec whose every profile inherits everything is therefore
**bit-identical** to the legacy homogeneous configuration — the
invariant ``tests/test_machines.py`` sweeps across both engines.
``lat_extra`` adds per-opclass execution latency (INT, FP, MEM,
BRANCH — :mod:`repro.sim.runstate` order) on top of each
instruction's base latency, modelling slower "little" cores without
touching the shared opcode tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Optional, Tuple

#: machine-spec schema; bump when the field set changes incompatibly
SCHEMA_VERSION = 1

#: valid inter-task predictor kinds (see repro.predict.taskpred)
PREDICTOR_KINDS: Tuple[str, ...] = ("path", "gshare", "hybrid")

#: opclass order of ``PUProfile.lat_extra`` (matches OPCLASS_* indices)
LAT_EXTRA_CLASSES: Tuple[str, ...] = ("int", "fp", "mem", "branch")


class MachineSpecError(ValueError):
    """A machine spec failed validation (message says what and where)."""


@dataclass(frozen=True)
class PUProfile:
    """One processing unit's overrides (``None`` = inherit SimConfig)."""

    name: str = "pu"
    issue_width: Optional[int] = None
    fetch_width: Optional[int] = None
    int_units: Optional[int] = None
    fp_units: Optional[int] = None
    branch_units: Optional[int] = None
    mem_units: Optional[int] = None
    #: extra execution cycles per opclass (INT, FP, MEM, BRANCH) added
    #: to every instruction this PU issues; zeros = paper timing
    lat_extra: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self) -> None:
        if not isinstance(self.lat_extra, tuple):
            object.__setattr__(self, "lat_extra", tuple(self.lat_extra))


@dataclass(frozen=True)
class MachineSpec:
    """A named machine: per-PU profiles + topology + predictor."""

    name: str
    pus: Tuple[PUProfile, ...]
    schema_version: int = SCHEMA_VERSION
    #: ring egress values/cycle/PU (None = inherit SimConfig)
    ring_bandwidth: Optional[int] = None
    #: extra cycles per ring hop beyond the first (None = inherit)
    ring_hop_latency: Optional[int] = None
    #: ARB entries per PU (None = inherit)
    arb_entries_per_pu: Optional[int] = None
    #: ARB lookup latency (None = inherit)
    arb_latency: Optional[int] = None
    #: inter-task predictor: "path" (the paper's), "gshare" or "hybrid"
    predictor: str = "path"

    def __post_init__(self) -> None:
        if not isinstance(self.pus, tuple):
            object.__setattr__(self, "pus", tuple(self.pus))

    @property
    def n_pus(self) -> int:
        return len(self.pus)

    # --------------------------------------------------------- identity

    def as_dict(self) -> Dict:
        """JSON-ready form (the registry/CLI serialization)."""
        out = asdict(self)
        out["pus"] = [asdict(p) for p in self.pus]
        for entry in out["pus"]:
            entry["lat_extra"] = list(entry["lat_extra"])
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "MachineSpec":
        """Inverse of :meth:`as_dict` (unknown keys are ignored)."""
        names = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in names}
        pu_names = {f.name for f in fields(PUProfile)}
        pus = []
        for entry in data.get("pus", ()):
            kwargs = {k: v for k, v in entry.items() if k in pu_names}
            if "lat_extra" in kwargs:
                kwargs["lat_extra"] = tuple(kwargs["lat_extra"])
            pus.append(PUProfile(**kwargs))
        data["pus"] = tuple(pus)
        return cls(**data)

    def machine_hash(self) -> str:
        """Stable short content hash of the full spec."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def with_predictor(spec: MachineSpec, predictor: str) -> MachineSpec:
    """``spec`` with its predictor axis set to ``predictor``."""
    if predictor not in PREDICTOR_KINDS:
        raise MachineSpecError(
            f"machine {spec.name!r}: unknown predictor {predictor!r}; "
            f"known: {', '.join(PREDICTOR_KINDS)}"
        )
    if spec.predictor == predictor:
        return spec
    return replace(spec, predictor=predictor)


def check_pu_count(n_pus: int, where: str = "") -> None:
    """Raise :class:`MachineSpecError` unless ``n_pus`` is a power of two.

    The one PU-count rule: presets are linted with it at registry
    load and the CLI's ``--pus`` options at parse time.  ``where``
    prefixes the message.
    """
    prefix = f"{where}: " if where else ""
    if n_pus < 1:
        raise MachineSpecError(f"{prefix}needs at least one PU")
    if n_pus & (n_pus - 1):
        raise MachineSpecError(
            f"{prefix}PU count {n_pus} is not a power of two (the ring "
            "hop arithmetic and L1 bank scaling assume one)"
        )


def validate_machine(spec: MachineSpec) -> None:
    """Lint one spec; raise :class:`MachineSpecError` on any problem.

    Runs at registry load (so a bad preset can never ship) and again
    on ``repro run --machine`` / ``repro scaling`` inputs, so a
    hand-built spec fails with a named, actionable message instead of
    a mid-simulation assertion.
    """
    where = f"machine {spec.name!r}"
    if not spec.name:
        raise MachineSpecError("machine spec needs a non-empty name")
    if spec.schema_version != SCHEMA_VERSION:
        raise MachineSpecError(
            f"{where}: schema_version {spec.schema_version} != "
            f"supported {SCHEMA_VERSION}"
        )
    check_pu_count(len(spec.pus), where)
    if spec.ring_bandwidth is not None and spec.ring_bandwidth < 1:
        raise MachineSpecError(
            f"{where}: ring_bandwidth must be >= 1, "
            f"got {spec.ring_bandwidth}"
        )
    if spec.ring_hop_latency is not None and spec.ring_hop_latency < 0:
        raise MachineSpecError(
            f"{where}: ring_hop_latency must be >= 0, "
            f"got {spec.ring_hop_latency}"
        )
    if spec.arb_entries_per_pu is not None and spec.arb_entries_per_pu < 0:
        raise MachineSpecError(
            f"{where}: arb_entries_per_pu must be >= 0, "
            f"got {spec.arb_entries_per_pu}"
        )
    if spec.arb_latency is not None and spec.arb_latency < 1:
        raise MachineSpecError(
            f"{where}: arb_latency must be >= 1, got {spec.arb_latency}"
        )
    if spec.predictor not in PREDICTOR_KINDS:
        raise MachineSpecError(
            f"{where}: unknown predictor {spec.predictor!r}; "
            f"known: {', '.join(PREDICTOR_KINDS)}"
        )
    for i, pu in enumerate(spec.pus):
        pu_where = f"{where}, PU {i} ({pu.name!r})"
        for attr in ("issue_width", "fetch_width"):
            value = getattr(pu, attr)
            if value is not None and value < 1:
                raise MachineSpecError(
                    f"{pu_where}: {attr} must be >= 1, got {value}"
                )
        for attr in ("int_units", "fp_units", "branch_units", "mem_units"):
            value = getattr(pu, attr)
            if value is not None and value < 1:
                raise MachineSpecError(
                    f"{pu_where}: {attr} must be >= 1 — every PU needs "
                    f"at least one unit of each class, got {value}"
                )
        if len(pu.lat_extra) != len(LAT_EXTRA_CLASSES):
            raise MachineSpecError(
                f"{pu_where}: lat_extra needs "
                f"{len(LAT_EXTRA_CLASSES)} entries "
                f"({'/'.join(LAT_EXTRA_CLASSES)}), "
                f"got {len(pu.lat_extra)}"
            )
        for cls_name, extra in zip(LAT_EXTRA_CLASSES, pu.lat_extra):
            if not isinstance(extra, int) or extra < 0:
                raise MachineSpecError(
                    f"{pu_where}: lat_extra[{cls_name}] must be a "
                    f"non-negative int, got {extra!r}"
                )
