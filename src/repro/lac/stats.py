"""Access and cycle counters collected by the LAC simulator.

The dissertation's power methodology derives memory and bus activity factors
from the access patterns of the algorithm under study (Section 1.3.3); the
simulator therefore counts every architecturally visible event:

* MAC issues (useful multiply-accumulate operations),
* accumulator reads/writes,
* local store A / B reads and writes,
* register file reads/writes,
* row and column bus broadcasts,
* special function unit operations,
* transfers between the core and the on-chip memory,
* total cycles.

The counters feed :class:`repro.models.power.PowerModel` through the
``activity_factors`` helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class AccessCounters:
    """Event counters for one simulation run."""

    cycles: int = 0
    mac_ops: int = 0
    accumulator_reads: int = 0
    accumulator_writes: int = 0
    store_a_reads: int = 0
    store_a_writes: int = 0
    store_b_reads: int = 0
    store_b_writes: int = 0
    register_reads: int = 0
    register_writes: int = 0
    row_broadcasts: int = 0
    column_broadcasts: int = 0
    sfu_ops: int = 0
    external_loads: int = 0
    external_stores: int = 0

    # ------------------------------------------------------------ arithmetic
    def copy(self) -> "AccessCounters":
        """Return an independent copy of the counters."""
        out = AccessCounters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name))
        return out

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------ derived
    @property
    def flops(self) -> int:
        """Useful floating point operations (one MAC = 2 flops)."""
        return 2 * self.mac_ops

    @property
    def external_words(self) -> int:
        """Total words moved between the core and the on-chip memory."""
        return self.external_loads + self.external_stores

    def utilization(self, num_pes: int) -> float:
        """MAC issue rate relative to peak (``num_pes`` MACs per cycle)."""
        if self.cycles <= 0 or num_pes <= 0:
            return 0.0
        return min(1.0, self.mac_ops / float(self.cycles * num_pes))

    def activity_factors(self, num_pes: int) -> Dict[str, float]:
        """Per-component activity factors in [0, 1] for the power model.

        Each factor is the average number of events per cycle per instance of
        the component (one MAC/accumulator/store pair per PE; ``2*nr`` buses
        per core, approximated by ``num_pes`` lanes for simplicity of
        normalisation).
        """
        if self.cycles <= 0:
            return {key: 0.0 for key in ("mac", "store_a", "store_b", "register_file",
                                         "row_bus", "column_bus", "sfu", "memory_interface")}
        c = float(self.cycles)
        n = float(max(num_pes, 1))
        clamp = lambda v: min(1.0, v)
        return {
            "mac": clamp(self.mac_ops / (c * n)),
            "store_a": clamp((self.store_a_reads + self.store_a_writes) / (c * n)),
            "store_b": clamp((self.store_b_reads + self.store_b_writes) / (c * n)),
            "register_file": clamp((self.register_reads + self.register_writes) / (c * n)),
            "row_bus": clamp(self.row_broadcasts / (c * n ** 0.5)),
            "column_bus": clamp(self.column_broadcasts / (c * n ** 0.5)),
            "sfu": clamp(self.sfu_ops / c),
            "memory_interface": clamp(self.external_words / (c * n ** 0.5)),
        }

    def summary(self) -> str:
        """Multi-line human readable summary."""
        lines = [f"cycles          : {self.cycles}",
                 f"MAC operations  : {self.mac_ops}",
                 f"store A r/w     : {self.store_a_reads}/{self.store_a_writes}",
                 f"store B r/w     : {self.store_b_reads}/{self.store_b_writes}",
                 f"register r/w    : {self.register_reads}/{self.register_writes}",
                 f"row broadcasts  : {self.row_broadcasts}",
                 f"col broadcasts  : {self.column_broadcasts}",
                 f"SFU operations  : {self.sfu_ops}",
                 f"external ld/st  : {self.external_loads}/{self.external_stores}"]
        return "\n".join(lines)
