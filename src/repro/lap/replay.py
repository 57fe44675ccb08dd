"""Schedule replay: re-key a recorded ``lap_runtime`` row instead of
re-simulating a delta sweep point.

The LAP study sweeps off-chip bandwidth, clock frequency and DRAM energy
per byte around fixed schedules.  Such a delta point often dispatches
provably like a point already simulated, because the changed constant
never reaches the dispatch order:

* off-chip bandwidth enters the schedule only through spill stalls, so a
  schedule with zero spill traffic is bandwidth-invariant;
* the prefetch-overlap fraction enters only through the visible part of
  the ``stall + local transfer`` cycles, so a schedule with zero movement
  cycles is overlap-invariant;
* the chip clock scales every task duration by one common factor when both
  points run homogeneous cores and no spill stall entered the cycle domain
  (stall cycles are ``spill_bytes / (bandwidth / clock)``);
* energy constants never feed back into dispatch at all.

:class:`ScheduleTrace` records what those arguments read from a finished
schedule (:meth:`repro.lap.runtime.LAPRuntime.schedule_trace`), and
:func:`replayed_row` decides one new point: it returns the recorded row
with the affected columns re-keyed, or ``None`` when the point must be
re-simulated.  :data:`REPLAY_STATS` counts both outcomes.  The
``lap_runtime`` runner (:mod:`repro.engine.runners`) files a recorded
schedule under the job's parameters minus the four constants above
(``DELTA_PARAMS``), in a per-process memo and as a replay record among
the result cache's entries, and places the gated columns of every row.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.memory import OffChipInterface
from repro.lap.chip import LAPConfig
from repro.lap.memory import TaskEnergyModel

__all__ = ["REPLAY_STATS", "ScheduleTrace", "replayed_row"]

#: Per-task ``(flops, onchip_bytes, offchip_bytes)`` energy factors.
EnergyTriple = Tuple[float, float, float]

#: ``(energy_per_flop_j, onchip_j_per_byte, offchip_j_per_byte)``.
EnergyConstants = Tuple[float, float, float]

#: Reads a header field back from a record's JSON, by its annotation.
_FROM_JSON = {"float": float, "bool": bool,
              "EnergyConstants": lambda values: tuple(float(v) for v in values)}

#: Counters of schedule replay (reset freely in tests): points recorded,
#: replayed and forced to re-simulate, plus the cross-process replay
#: sidecar's loads (seeding the in-process memo from disk) and stores
#: (publishing fresh recordings to it).
REPLAY_STATS: Dict[str, int] = {"recorded": 0, "replayed": 0, "forced": 0,
                                "sidecar_loaded": 0, "sidecar_stored": 0}


@dataclass
class ScheduleTrace:
    """Recorded schedule of one ``execute()`` call, for delta-sweep replay.

    The fields are the header :meth:`exact_for` and the energy re-key
    read: the movement totals that gate the bandwidth and overlap axes, the
    recorded clock and core homogeneity, and the energy constants the
    recorded energy was computed with.  A freshly recorded trace also gets
    ``triples``, a zero-argument callable producing the per-task
    :data:`EnergyTriple` list, called on the first energy re-key
    (:meth:`energy_triples`).  A replay record persists only the header
    (:meth:`to_payload`), so a trace rebuilt from it refuses every delta
    that needs a re-key.
    """

    stall_overlap: float
    effective_bandwidth_gbs: float
    total_spill_bytes: float
    total_movement_cycles: float
    makespan_cycles: float
    frequency_ghz: float
    homogeneous_cores: bool
    energy_constants: EnergyConstants
    flush_writeback_bytes: float
    triples: InitVar[Optional[Callable[[], List[EnergyTriple]]]] = None

    def __post_init__(self, triples) -> None:
        self._triples_thunk = triples
        self._triples: Optional[List[EnergyTriple]] = None

    def to_payload(self) -> Dict[str, object]:
        """The header, for a replay record.

        The per-task energy triples are deliberately dropped, so a record
        stays a few hundred bytes even for million-task schedules.
        """
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScheduleTrace":
        """Rebuild a header-only trace persisted by :meth:`to_payload`.

        Each field is read back as its annotated type, and every field is
        required: the record keys hash the package source, so every record
        was written by this code, and a record missing a field raises
        (``KeyError``), which the record loader treats as a miss.
        """
        return cls(**{field.name: _FROM_JSON[field.type](payload[field.name])
                      for field in fields(cls)})

    # --------------------------------------------------- energy re-keying
    @property
    def has_energy_triples(self) -> bool:
        """Whether per-task energy triples are (or can be) materialised."""
        return self._triples is not None or self._triples_thunk is not None

    def energy_triples(self) -> Optional[List[EnergyTriple]]:
        """Per-task energy triples in dispatch order; ``None`` on a
        header-only trace rebuilt from a replay record."""
        if self._triples is None and self._triples_thunk is not None:
            self._triples = self._triples_thunk()
            self._triples_thunk = None
        return self._triples

    def rekey_energy_j(self, energy_per_flop_j: float,
                       onchip_energy_per_byte_j: float,
                       offchip_energy_per_byte_j: float) -> float:
        """Total schedule energy under new constants.

        Re-accumulates the per-task energies left to right with the same
        association the simulation used (``(fl * epf + on * epon) + off *
        epoff`` per task, then the end-of-schedule flush writeback), so
        calling it with the recorded :attr:`energy_constants` reproduces
        the recorded ``energy_j`` bit for bit.
        """
        triples = self.energy_triples()
        if triples is None:
            raise ValueError(
                "per-task energy triples unavailable (header-only trace)")
        epf = energy_per_flop_j
        epon = onchip_energy_per_byte_j
        epoff = offchip_energy_per_byte_j
        total = 0.0
        for fl, on, off in triples:
            total += (fl * epf + on * epon) + off * epoff
        total += self.flush_writeback_bytes * epoff
        return total

    def exact_for(self, bandwidth_gbs: float, stall_overlap: float,
                  frequency_ghz: float, homogeneous_cores: bool,
                  offchip_energy_per_byte_j: float) -> bool:
        """Whether replaying at a new point's constants is provably exact.

        ``bandwidth_gbs`` is the new point's *effective* bandwidth (the chip
        default when no override is given) and ``offchip_energy_per_byte_j``
        its off-chip energy constant.  ``frequency_ghz`` is its chip clock
        and ``homogeneous_cores`` whether every core runs at that clock.  A
        frequency delta or an off-chip energy delta also needs the per-task
        energy triples, because the energy column must be re-keyed.
        """
        if (bandwidth_gbs != self.effective_bandwidth_gbs
                and self.total_spill_bytes != 0.0):
            return False
        if (stall_overlap != self.stall_overlap
                and self.total_movement_cycles != 0.0):
            return False
        needs_rekey = offchip_energy_per_byte_j != self.energy_constants[2]
        if frequency_ghz != self.frequency_ghz:
            # Only a uniform rescale of every duration leaves the dispatch
            # order untouched; spill stalls move with the clock.
            if not (self.homogeneous_cores and homogeneous_cores):
                return False
            if self.total_spill_bytes != 0.0:
                return False
            # The per-flop energy constant moves with the clock.
            needs_rekey = True
        return not needs_rekey or self.has_energy_triples


def replayed_row(recorded: Optional[Tuple[ScheduleTrace, dict]],
                 config: LAPConfig, interface: OffChipInterface,
                 stall_overlap: float,
                 core_frequencies_ghz: Optional[Sequence[float]]
                 ) -> Optional[dict]:
    """The ``lap_runtime`` row of a new point replayed from a recording.

    ``recorded`` is the ``(trace, row)`` of a simulated point with the same
    replay key (``None`` when there is none); ``config`` is the new point's
    chip, ``interface`` its off-chip interface
    (:func:`repro.lap.memory.offchip_interface`), ``stall_overlap`` its
    prefetch-overlap fraction and ``core_frequencies_ghz`` its per-core
    clocks (``None`` for the chip clock on every core).  Returns ``None``
    -- the point must be re-simulated -- unless
    :meth:`ScheduleTrace.exact_for` proves the recorded schedule exact at
    the new constants.  Otherwise a copy of the row is patched where the
    constants change it: the effective ``bandwidth_gbs``, ``makespan_ns``
    under a clock delta, and ``energy_j`` / ``gflops_per_w`` re-keyed from
    the per-task energy triples under a clock or off-chip energy delta.
    Every other column is byte-identical to a re-simulation.
    """
    if recorded is None:
        return None
    trace, row = recorded
    new_freq = config.frequency_ghz
    epoff = interface.energy_per_byte_j
    homogeneous = (core_frequencies_ghz is None
                   or all(f == new_freq for f in core_frequencies_ghz))
    if not trace.exact_for(interface.bandwidth_gbytes_per_sec, stall_overlap,
                           new_freq, homogeneous, epoff):
        REPLAY_STATS["forced"] += 1
        return None
    REPLAY_STATS["replayed"] += 1
    out = dict(row)
    clock_delta = new_freq != trace.frequency_ghz
    if clock_delta:
        out["makespan_ns"] = trace.makespan_cycles / new_freq
    out["bandwidth_gbs"] = interface.bandwidth_gbytes_per_sec
    epf, epon, recorded_epoff = trace.energy_constants
    if clock_delta or epoff != recorded_epoff:
        if clock_delta:
            # The per-flop and per-on-chip-byte constants follow the chip's
            # operating point: rebuild them at the new clock.
            energy = TaskEnergyModel(config.fmac(), config.onchip_memory(),
                                     interface)
            epf = energy.energy_per_flop_j
            epon = energy.onchip_energy_per_byte_j
        energy_j = trace.rekey_energy_j(epf, epon, epoff)
        out["energy_j"] = energy_j
        out["gflops_per_w"] = (float(row["total_flops"]) / energy_j / 1e9
                               if energy_j > 0 else 0.0)
    return out
