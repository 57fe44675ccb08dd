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
``lap_runtime`` runner keeps recorded schedules in a per-process memo and
as replay records among the result cache's entries
(:mod:`repro.engine.runners`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lap.chip import LAPConfig
from repro.lap.memory import TaskEnergyModel

__all__ = ["REPLAY_STATS", "ScheduleTrace", "replayed_row"]

#: Per-task ``(flops, onchip_bytes, offchip_bytes)`` energy factors.
EnergyTriple = Tuple[float, float, float]

#: Counters of schedule replay (reset freely in tests): points recorded,
#: replayed and forced to re-simulate, plus the cross-process replay
#: sidecar's loads (seeding the in-process memo from disk) and stores
#: (publishing fresh recordings to it).
REPLAY_STATS: Dict[str, int] = {"recorded": 0, "replayed": 0, "forced": 0,
                                "sidecar_loaded": 0, "sidecar_stored": 0}


class ScheduleTrace:
    """Recorded schedule of one ``execute()`` call, for delta-sweep replay.

    The scalar header is what :meth:`exact_for` and the energy re-key read:
    the movement totals that gate the bandwidth and overlap axes, the
    recorded clock and core homogeneity, the energy constants the recorded
    energy was computed with (``(energy_per_flop_j, onchip_j_per_byte,
    offchip_j_per_byte)``), and the chip defaults a new point's overrides fall back to.  A freshly
    recorded trace also carries ``energy_triples``, a zero-argument callable
    producing the per-task :data:`EnergyTriple` list, called on the first
    energy re-key.  The sidecar persists only the header
    (:meth:`to_payload`), so a trace rebuilt from it refuses every delta
    that needs a re-key.
    """

    def __init__(self, *, stall_overlap: float,
                 effective_bandwidth_gbs: float,
                 default_bandwidth_gbs: float, total_spill_bytes: float,
                 total_movement_cycles: float, makespan_cycles: float,
                 frequency_ghz: float, homogeneous_cores: bool,
                 energy_constants: Tuple[float, float, float],
                 default_offchip_energy_per_byte_j: float,
                 flush_writeback_bytes: float,
                 energy_triples: Optional[
                     Callable[[], List[EnergyTriple]]] = None):
        self.stall_overlap = stall_overlap
        self.effective_bandwidth_gbs = effective_bandwidth_gbs
        self.default_bandwidth_gbs = default_bandwidth_gbs
        self.total_spill_bytes = total_spill_bytes
        self.total_movement_cycles = total_movement_cycles
        self.makespan_cycles = makespan_cycles
        self.frequency_ghz = frequency_ghz
        self.homogeneous_cores = homogeneous_cores
        self.energy_constants = energy_constants
        self.default_offchip_energy_per_byte_j = (
            default_offchip_energy_per_byte_j)
        self.flush_writeback_bytes = flush_writeback_bytes
        self._triples_thunk = energy_triples
        self._triples: Optional[List[EnergyTriple]] = None

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable header for the cross-process replay sidecar.

        The per-task energy triples are deliberately dropped, so a record
        stays a few hundred bytes even for million-task schedules.
        """
        return {
            "stall_overlap": self.stall_overlap,
            "effective_bandwidth_gbs": self.effective_bandwidth_gbs,
            "default_bandwidth_gbs": self.default_bandwidth_gbs,
            "total_spill_bytes": self.total_spill_bytes,
            "total_movement_cycles": self.total_movement_cycles,
            "makespan_cycles": self.makespan_cycles,
            "frequency_ghz": self.frequency_ghz,
            "homogeneous_cores": self.homogeneous_cores,
            "energy_constants": list(self.energy_constants),
            "default_offchip_energy_per_byte_j": (
                self.default_offchip_energy_per_byte_j),
            "flush_writeback_bytes": self.flush_writeback_bytes,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScheduleTrace":
        """Rebuild a header-only trace persisted by :meth:`to_payload`.

        Every field is required: the sidecar's keys hash the package
        source, so every record was written by this code, and a record
        missing a field raises (``KeyError``), which the sidecar loader
        treats as a miss.
        """
        return cls(
            stall_overlap=float(payload["stall_overlap"]),
            effective_bandwidth_gbs=float(payload["effective_bandwidth_gbs"]),
            default_bandwidth_gbs=float(payload["default_bandwidth_gbs"]),
            total_spill_bytes=float(payload["total_spill_bytes"]),
            total_movement_cycles=float(payload["total_movement_cycles"]),
            makespan_cycles=float(payload["makespan_cycles"]),
            frequency_ghz=float(payload["frequency_ghz"]),
            homogeneous_cores=bool(payload["homogeneous_cores"]),
            energy_constants=tuple(float(v)
                                   for v in payload["energy_constants"]),
            default_offchip_energy_per_byte_j=float(
                payload["default_offchip_energy_per_byte_j"]),
            flush_writeback_bytes=float(payload["flush_writeback_bytes"]))

    # --------------------------------------------------- energy re-keying
    @property
    def has_energy_triples(self) -> bool:
        """Whether per-task energy triples are (or can be) materialised."""
        return self._triples is not None or self._triples_thunk is not None

    def energy_triples(self) -> Optional[List[EnergyTriple]]:
        """Per-task energy triples in dispatch order; ``None`` on a
        header-only trace rebuilt from the sidecar."""
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
                 config: LAPConfig, *,
                 bandwidth_gbs: Optional[float],
                 stall_overlap: Optional[float],
                 frequency_ghz: Optional[float],
                 offchip_pj_per_byte: Optional[float],
                 core_frequencies_ghz: Optional[Sequence[float]]
                 ) -> Optional[dict]:
    """The ``lap_runtime`` row of a new point replayed from a recording.

    ``recorded`` is the ``(trace, row)`` of a simulated point with the same
    structure (``None`` when there is none), ``config`` the new point's
    chip and the keyword arguments its ``lap_runtime`` parameters (``None``
    where unset).  Returns ``None`` -- the point must be re-simulated --
    unless :meth:`ScheduleTrace.exact_for` proves the recorded schedule
    exact at the new constants.  Otherwise only what the constants change
    is patched: the gated ``stall_overlap`` / ``frequency_ghz`` /
    ``offchip_pj_per_byte`` columns (present exactly when the new point
    sets the parameter, where a fresh row has them), the effective
    ``bandwidth_gbs``, ``makespan_ns`` under a clock delta, and
    ``energy_j`` / ``gflops_per_w`` re-keyed from the per-task energy
    triples under a clock or off-chip energy delta.  Every other column is
    byte-identical to a re-simulation.
    """
    if recorded is None:
        return None
    trace, row = recorded
    new_freq = config.frequency_ghz
    effective_bw = (trace.default_bandwidth_gbs if bandwidth_gbs is None
                    else bandwidth_gbs)
    epoff = (trace.default_offchip_energy_per_byte_j
             if offchip_pj_per_byte is None else offchip_pj_per_byte * 1e-12)
    homogeneous = (core_frequencies_ghz is None
                   or all(f == new_freq for f in core_frequencies_ghz))
    if not trace.exact_for(effective_bw,
                           0.0 if stall_overlap is None else stall_overlap,
                           new_freq, homogeneous, epoff):
        REPLAY_STATS["forced"] += 1
        return None
    REPLAY_STATS["replayed"] += 1
    out = {}
    for key, value in row.items():
        if key in ("stall_overlap", "frequency_ghz", "offchip_pj_per_byte"):
            continue
        out[key] = value
        if key == "core_frequencies_ghz" and frequency_ghz is not None:
            out["frequency_ghz"] = frequency_ghz
        if key == "memory" and stall_overlap is not None:
            out["stall_overlap"] = stall_overlap
        if key == "bandwidth_gbs" and offchip_pj_per_byte is not None:
            out["offchip_pj_per_byte"] = offchip_pj_per_byte
    clock_delta = new_freq != trace.frequency_ghz
    if clock_delta:
        out["makespan_ns"] = trace.makespan_cycles / new_freq
    out["bandwidth_gbs"] = effective_bw
    epf, epon, recorded_epoff = trace.energy_constants
    if clock_delta or epoff != recorded_epoff:
        if clock_delta:
            # The per-flop and per-on-chip-byte constants follow the chip's
            # operating point: rebuild them at the new clock.
            energy = TaskEnergyModel(config.fmac(), config.onchip_memory(),
                                     config.offchip())
            epf = energy.energy_per_flop_j
            epon = energy.onchip_energy_per_byte_j
        energy_j = trace.rekey_energy_j(epf, epon, epoff)
        out["energy_j"] = energy_j
        out["gflops_per_w"] = (float(row["total_flops"]) / energy_j / 1e9
                               if energy_j > 0 else 0.0)
    return out
