"""Aliases of the schedule-replay objects for the sweep benchmark.

``perfbench/`` binds :class:`~repro.lap.replay.ScheduleTrace` and
:data:`~repro.lap.replay.REPLAY_STATS` under this module's name, so they are
re-exported here (as the very same objects) until the benchmark reads the
product's stages instead.
"""

from repro.lap.replay import REPLAY_STATS, ScheduleTrace

__all__ = ["REPLAY_STATS", "ScheduleTrace"]
