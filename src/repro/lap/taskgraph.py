"""TaskGraph IR: tile task graphs for the algorithms-by-blocks layer.

The dissertation's programming environment (Figure 1.2, Chapter 5) breaks a
large routine into *atomic* tile operations and hands each to the LAP through
a thin driver interface.  This module is the intermediate representation of
that layer:

* :class:`TaskKind` -- the atomic tile operations the runtime understands
  (level-3 BLAS updates plus the factorization tile kernels of Chapter 6);
* :class:`TaskDescriptor` -- one tile operation (the "command packet"): the
  input format of hand-built graphs and an on-demand view of any graph;
* :class:`TaskGraph` -- an immutable dependency graph held as dense
  per-position arrays: the adjacency (ids, successors, in-degrees), each
  task's footprint as dense tile ids, its output coordinate and memoization
  group -- exactly what the scheduler loop reads -- and the analytics a
  scheduler needs (critical path, width, per-kind counts, topological
  levels), computed from those arrays;
* :class:`AlgorithmsByBlocks` -- the host-library decomposition of GEMM,
  Cholesky, LU (no pivoting across tiles) and tiled Householder QR into
  dependency-ordered tile graphs.

Every task additionally carries its *data footprint*: the logical tiles it
reads and writes, named ``(operand, (block_row, block_col))``.  One
per-kind rule, :func:`task_footprint`, states every footprint; a
factorization updates one operand in place, so its graphs name every tile
``"A"``.  Each builder only yields its algorithm's steps, and one pass over
them numbers the footprints and links every task to the last writer of each
tile it touches.  The tile-residency model of the scheduler loop
(:meth:`repro.lap.runtime.LAPRuntime.execute`) consumes the footprints to
account on-chip working sets, spills and off-chip traffic.

Schedulers (:mod:`repro.lap.policies`), timing models
(:mod:`repro.lap.timing`), the memory hierarchy (:mod:`repro.lap.memory`)
and the driver (:mod:`repro.lap.runtime`) all consume this IR; nothing here
touches the simulator.
"""

from __future__ import annotations

import collections
import collections.abc
import enum
import functools
import gc
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)


class TaskKind(enum.Enum):
    """Atomic tile operations the LAP accepts from the host."""

    GEMM = "gemm"                  #: C_tile += alpha * A_tile @ op(B_tile)
    SYRK = "syrk"                  #: C_tile += alpha * A_tile @ A_tile^T (lower)
    TRSM = "trsm"                  #: B_tile := L_tile^{-1} B_tile
    TRSM_RIGHT_T = "trsm_rt"       #: B_tile := B_tile @ L_tile^{-T}
    CHOLESKY = "chol"              #: A_tile := chol(A_tile)
    LU = "lu"                      #: A_tile := {L\U} (no pivoting across tiles)
    TRSM_LOWER = "trsm_ll"         #: B_tile := unit_lower(L_tile)^{-1} B_tile
    TRSM_UPPER_RIGHT = "trsm_ru"   #: B_tile := B_tile @ triu(U_tile)^{-1}
    GEQRT = "geqrt"                #: A_tile := {V\R}, tau (QR of a diagonal tile)
    TSQRT = "tsqrt"                #: [R; A_tile] := QR (triangle-on-top-of-square)
    UNMQR = "unmqr"                #: C_tile := Q^T C_tile (reflectors of GEQRT)
    TSMQR = "tsmqr"                #: [C_top; C_bot] := Q^T [..] (reflectors of TSQRT)

    # Members are singletons, so the identity hash agrees with equality;
    # Enum's default hashes the name in Python code, which a graph build
    # would pay on every task's memoization-group lookup.
    __hash__ = object.__hash__


# Member lookups on an Enum class go through its metaclass's attribute hook
# (several hundred ns each in CPython 3.11); the per-step code reads these.
_GEMM, _SYRK, _TSQRT, _UNMQR, _TSMQR = (TaskKind.GEMM, TaskKind.SYRK,
                                        TaskKind.TSQRT, TaskKind.UNMQR,
                                        TaskKind.TSMQR)


#: One logical tile: (operand name, (block_row, block_col)).
TileAccess = Tuple[str, Tuple[int, int]]

#: First-order flop estimates per task kind for a ``t x t`` tile, used by the
#: per-task energy model (pJ/flop) and arithmetic-intensity reporting.  The
#: constants are the textbook leading-order counts; exact lower-order terms
#: are irrelevant at the fidelity of the energy model.
_TASK_FLOPS: Dict[TaskKind, Callable[[int], float]] = {
    TaskKind.GEMM: lambda t: 2.0 * t ** 3,
    TaskKind.SYRK: lambda t: float(t * t * (t + 1)),
    TaskKind.TRSM: lambda t: float(t ** 3),
    TaskKind.TRSM_RIGHT_T: lambda t: float(t ** 3),
    TaskKind.TRSM_LOWER: lambda t: float(t ** 3),
    TaskKind.TRSM_UPPER_RIGHT: lambda t: float(t ** 3),
    TaskKind.CHOLESKY: lambda t: t ** 3 / 3.0,
    TaskKind.LU: lambda t: 2.0 * t ** 3 / 3.0,
    TaskKind.GEQRT: lambda t: 4.0 * t ** 3 / 3.0,
    TaskKind.TSQRT: lambda t: 2.0 * t ** 3,
    TaskKind.UNMQR: lambda t: 2.0 * t ** 3,
    TaskKind.TSMQR: lambda t: 3.0 * t ** 3,
}


#: The triangular-solve kinds: read ``L``, update ``B`` in place.
_SOLVE_KINDS = frozenset({TaskKind.TRSM, TaskKind.TRSM_RIGHT_T,
                          TaskKind.TRSM_LOWER, TaskKind.TRSM_UPPER_RIGHT})


def task_footprint(kind: TaskKind, output: Tuple[int, int],
                   inputs: Sequence[Tuple[int, int]], in_place: bool = False
                   ) -> Tuple[List[TileAccess], List[TileAccess]]:
    """The ``(reads, writes)`` tile names of one task: the per-kind rule.

    GEMM and SYRK read every input tile plus the accumulator ``C`` and
    write ``C``; the solves read ``L`` and update ``B``; the factorization
    kernels read and write ``A``.  ``in_place`` names every operand ``A``,
    as a factorization updates one matrix, so its operand dictionaries
    alias.  Reads keep repeats (Cholesky's diagonal SYRK reads its input
    tile twice): the on-chip energy term charges every operand access.
    """
    a, b, c, l = ("A",) * 4 if in_place else ("A", "B", "C", "L")
    if kind is _GEMM:
        return [(a, inputs[0]), (b, inputs[1]), (c, output)], [(c, output)]
    if kind is _SYRK:
        return [(a, x) for x in inputs] + [(c, output)], [(c, output)]
    if kind in _SOLVE_KINDS:
        return [(l, inputs[0]), (b, output)], [(b, output)]
    if kind is _TSQRT:
        both = [("A", inputs[0]), ("A", output)]
        return both, list(both)
    if kind is _UNMQR:
        return [("A", inputs[0]), ("A", output)], [("A", output)]
    if kind is _TSMQR:
        return [("A", x) for x in inputs], [("A", inputs[1]), ("A", inputs[2])]
    # CHOLESKY, LU and GEQRT factor their output tile in place.
    return [("A", output)], [("A", output)]


@dataclass
class TaskDescriptor:
    """One atomic tile operation (the command-packet abstraction): the input
    format of hand-built graphs and the on-demand view of any
    :class:`TaskGraph`.

    ``inputs`` and ``output`` are tile coordinates ``(block_row, block_col)``
    into the blocked operand; ``depends_on`` lists task ids that must complete
    first (the host library serialises dependent tiles, everything else may
    run on any idle core).  ``alpha`` scales the product of update tasks
    (``-1`` for the trailing updates of a factorization) and ``transpose_b``
    requests the second operand transposed, which the LAC performs over its
    diagonal PEs at no extra bandwidth cost.

    ``reads`` and ``writes`` are the task's data footprint as
    ``(operand, coordinate)`` tile names.  The graph builders fill them in
    from :func:`task_footprint` with operand aliasing resolved; when left
    ``None`` they are derived by the same rule with the conventional
    operand names, which is correct for hand-built graphs whose operand
    dictionaries do not alias.
    """

    task_id: int
    kind: TaskKind
    output: Tuple[int, int]
    inputs: List[Tuple[int, int]] = field(default_factory=list)
    depends_on: List[int] = field(default_factory=list)
    alpha: float = 1.0
    transpose_b: bool = False
    reads: Optional[List[TileAccess]] = None
    writes: Optional[List[TileAccess]] = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task ids must be non-negative")

    # ----------------------------------------------------------- footprints
    def read_tiles(self) -> List[TileAccess]:
        """Tiles the task reads (explicit footprint or kind-derived)."""
        if self.reads is not None:
            return list(self.reads)
        return task_footprint(self.kind, self.output, self.inputs)[0]

    def write_tiles(self) -> List[TileAccess]:
        """Tiles the task writes (explicit footprint or kind-derived)."""
        if self.writes is not None:
            return list(self.writes)
        return task_footprint(self.kind, self.output, self.inputs)[1]


def _group_key(kind: TaskKind, alpha: float = 1.0,
               transpose_b: bool = False) -> Tuple[TaskKind, bool, bool]:
    """Memoization group of a task: at one tile size and precision, a tile
    task's cycle count is fixed by its kind, unit alpha and transpose (see
    :mod:`repro.lap.timing`)."""
    return kind, alpha == 1.0, bool(transpose_b)


class TaskGraph(collections.abc.Sequence):
    """An immutable tile-task dependency graph held as per-position arrays.

    The arrays are what the scheduler loop of
    :meth:`repro.lap.runtime.LAPRuntime.execute` reads: ``ids`` (a
    builder graph numbers its tasks from 0; a hand-built graph's need be
    neither 0-based nor contiguous), ``succ`` (sorted successor positions),
    ``indegree``, ``group`` (index into ``group_keys``, whose kind is the
    task's), ``out_id`` (dense output coordinate), ``foot_ids``
    (reads-then-writes footprint as dense tile ids, deduplicated;
    ``num_tiles`` of them size the loop's residency state), ``write_ids``
    and ``rw_len`` (the operand count the on-chip energy term charges).
    A hand-built graph, ``TaskGraph(descriptors)``, numbers its footprint
    arrays on the first :meth:`fast_arrays`.  The analytics (per-kind
    counts, levels, width, critical paths) come from one forward and one
    reverse pass over them.

    The graph is also a sequence of :class:`TaskDescriptor`: a hand-built
    graph's own, or rebuilt by re-running an :class:`AlgorithmsByBlocks`
    step generator on every access (hold ``list(graph)`` to index many).

    Dependencies on unknown task ids are rejected here; cycles are only
    detected lazily (by :meth:`levels` / the scheduler's deadlock check) so
    that deliberately broken graphs can still be handed to the runtime in
    tests.
    """

    #: Name of the :class:`AlgorithmsByBlocks` workload that built the graph
    #: (``None`` for a hand-built one).
    workload: Optional[str] = None
    #: ``None`` until a hand-built graph's first :meth:`fast_arrays`, so a
    #: graph of tasks without a valid footprint can still be analysed.
    group: Optional[List[int]] = None
    _tasks: Optional[List[TaskDescriptor]] = None     # given, if hand-built
    _level_positions: Optional[List[List[int]]] = None
    _summary: Optional[Dict[str, object]] = None
    #: Negated unit critical-path ranks per position, cached by the first
    #: ``critical_path`` execute for later ones.
    _negrank: Optional[List[float]] = None

    def __init__(self, tasks: Iterable[TaskDescriptor]):
        tasks = list(tasks)
        ids = [task.task_id for task in tasks]
        id2idx = {tid: i for i, tid in enumerate(ids)}
        if len(id2idx) != len(ids):
            dup = next(tid for tid, count in collections.Counter(ids).items()
                       if count > 1)
            raise ValueError(f"duplicate task id {dup}")
        succ: List[List[int]] = [[] for _ in tasks]
        indegree: List[int] = []
        for i, task in enumerate(tasks):
            deps = set(task.depends_on)
            for dep in deps:
                j = id2idx.get(dep)
                if j is None:
                    raise ValueError(f"task {task.task_id} depends on unknown "
                                     f"task id {dep}")
                succ[j].append(i)
            indegree.append(len(deps))
        self.ids: List[int] = ids
        self.succ: List[Tuple[int, ...]] = list(map(tuple, succ))
        self.indegree = indegree
        self._tasks = tasks

    @classmethod
    def _from_steps(cls, workload: str, steps: Callable[[], Iterable[Tuple]],
                    in_place: bool) -> "TaskGraph":
        """The graph of a builder's ``steps()`` (kept for the descriptor
        view), task ids from 0: footprints by
        :func:`task_footprint`, dependencies by the last-writer rule."""
        graph = cls.__new__(cls)
        # Nothing the pass allocates can form a reference cycle, so the
        # cyclic collector's full passes over the growing graph (a fifth
        # of a 357,760-task build) are paused until it is done.
        collecting = gc.isenabled()
        gc.disable()
        try:
            graph._number(
                ((kind, output, *task_footprint(kind, output, inputs, in_place),
                  _group_key(kind, *options))
                 for kind, output, inputs, *options in steps()),
                last_writer_rule=True)
        finally:
            if collecting:
                gc.enable()
        graph.ids = list(range(len(graph.succ)))
        graph._steps = steps
        graph._in_place = in_place
        graph.workload = workload
        return graph

    def _number(self, tasks: Iterable[Tuple],
                last_writer_rule: bool = False) -> None:
        """Fill the footprint arrays from one pass over ``tasks``, each
        ``(kind, output, reads, writes, group key)``, numbering tile names,
        output coordinates and groups densely in first-seen order.

        ``last_writer_rule`` also links every task to the last writer of
        each tile it reads or writes (the read-after-write and
        write-after-write order), so every predecessor precedes its task.
        """
        tile_ids: Dict[TileAccess, int] = {}
        tile_id = tile_ids.get
        coords: Dict[Tuple[int, int], int] = {}
        group_of: Dict[Tuple, int] = {}
        last_writer: List[int] = []      # position, by tile id; -1: none yet
        succ: List[List[int]] = []
        indegree: List[int] = []
        group, out_id, foot_ids, write_ids, rw_len = [], [], [], [], []
        for i, (kind, output, reads, writes, gkey) in enumerate(tasks):
            group.append(group_of.setdefault(gkey, len(group_of)))
            out_id.append(coords.setdefault(output, len(coords)))
            # Reads, then writes: the footprint keeps first-seen order.
            foot: List[int] = []
            for access in reads:
                tid = tile_id(access)
                if tid is None:
                    tid = tile_ids[access] = len(last_writer)
                    last_writer.append(-1)
                if tid not in foot:
                    foot.append(tid)
            wids: List[int] = []
            for access in writes:
                tid = tile_id(access)
                if tid is None:
                    tid = tile_ids[access] = len(last_writer)
                    last_writer.append(-1)
                if tid not in foot:
                    foot.append(tid)
                wids.append(tid)
            foot_ids.append(tuple(foot))
            write_ids.append(tuple(wids))
            rw_len.append(len(reads) + len(wids))
            if last_writer_rule:
                deps: List[int] = []
                for tid in foot:
                    j = last_writer[tid]
                    if j >= 0 and j not in deps:
                        deps.append(j)
                        succ[j].append(i)
                succ.append([])
                indegree.append(len(deps))
                for tid in wids:
                    last_writer[tid] = i
        #: ``(kind, unit alpha, transpose)`` of each memoization group.
        self.group_keys: List[Tuple] = list(group_of)
        counts = collections.Counter(group)
        self.group_counts = [counts[gid] for gid in range(len(group_of))]
        self.out_id = out_id
        self.num_out_coords = len(coords)
        self.foot_ids = foot_ids
        self.write_ids = write_ids
        self.rw_len = rw_len
        self.num_tiles = len(tile_ids)
        self.group = group
        if last_writer_rule:
            self.succ = list(map(tuple, succ))
            self.indegree = indegree

    # -------------------------------------------------------- sequence API
    def _descriptors(self) -> List[TaskDescriptor]:
        """The tasks as descriptors, in graph order."""
        if self._tasks is not None:
            return self._tasks
        ids = self.ids
        preds: List[List[int]] = [[] for _ in ids]
        for i, targets in enumerate(self.succ):
            for j in targets:
                preds[j].append(ids[i])
        tasks = []
        for task_id, deps, (kind, output, inputs, *options) in zip(
                ids, preds, self._steps()):
            reads, writes = task_footprint(kind, output, inputs,
                                           self._in_place)
            tasks.append(TaskDescriptor(task_id, kind, output, inputs, deps,
                                        *options, reads=reads, writes=writes))
        return tasks

    def __len__(self) -> int:
        return len(self.succ)

    def __iter__(self) -> Iterator[TaskDescriptor]:
        return iter(self._descriptors())

    def __getitem__(self, index):
        return self._descriptors()[index]

    def fast_arrays(self) -> "TaskGraph":
        """The graph, with the footprint arrays the scheduler loop reads.

        A builder graph has them from its build; a hand-built graph derives
        them from its descriptors on the first call, by the same numbering.
        """
        if self.group is None:
            self._number((task.kind, task.output, task.read_tiles(),
                          task.write_tiles(),
                          _group_key(task.kind, task.alpha, task.transpose_b))
                         for task in self._tasks)
        return self

    # ------------------------------------------------------------ analytics
    def kind_counts(self) -> Dict[TaskKind, int]:
        """Number of tasks of each kind present in the graph."""
        arrays = self.fast_arrays()
        counts: Dict[TaskKind, int] = {}
        for (kind, _, _), count in zip(arrays.group_keys, arrays.group_counts):
            counts[kind] = counts.get(kind, 0) + count
        return counts

    def _levels(self) -> List[List[int]]:
        """Positions by topological level (dependency depth), from one
        forward pass over the graph; cached.

        Raises :class:`ValueError` if the graph contains a cycle.
        """
        if self._level_positions is None:
            succ = self.succ
            remaining = list(self.indegree)
            frontier = [i for i, deg in enumerate(remaining) if deg == 0]
            levels: List[List[int]] = []
            while frontier:
                levels.append(frontier)
                frontier = []
                for i in levels[-1]:
                    for j in succ[i]:
                        left = remaining[j] - 1
                        remaining[j] = left
                        if not left:
                            frontier.append(j)
            if sum(map(len, levels)) != len(succ):
                raise ValueError("task graph contains a dependency cycle")
            self._level_positions = levels
        return self._level_positions

    def levels(self) -> List[List[int]]:
        """Topological levels: level ``d`` holds the ids at dependency depth ``d``.

        Raises :class:`ValueError` if the graph contains a cycle.
        """
        ids = self.ids
        return [sorted([ids[i] for i in level]) for level in self._levels()]

    def width(self) -> int:
        """Size of the largest topological level (peak task parallelism)."""
        return max(map(len, self._levels()), default=0)

    def _path_lengths(
            self, weight: Optional[Callable[[TaskDescriptor], float]] = None
    ) -> List[float]:
        """Longest path from each position to any exit, inclusive of the
        task: one reverse pass over the levels."""
        succ = self.succ
        tasks = None if weight is None else self._descriptors()
        lengths = [0.0] * len(succ)
        for level in reversed(self._levels()):
            for i in level:
                after = succ[i]
                down = lengths[after[0]] if after else 0.0
                for j in after:
                    if lengths[j] > down:
                        down = lengths[j]
                w = 1.0 if tasks is None else float(weight(tasks[i]))
                lengths[i] = w + down
        return lengths

    def critical_path_lengths(
            self, weight: Optional[Callable[[TaskDescriptor], float]] = None
    ) -> Dict[int, float]:
        """Longest path from each task id to any exit, inclusive of the task.

        With the default unit weight the value is the number of tasks on the
        longest downstream chain; pass ``weight`` to use estimated cycles.
        Used by the critical-path scheduling policy.
        """
        return dict(zip(self.ids, self._path_lengths(weight)))

    def critical_path_length(
            self, weight: Optional[Callable[[TaskDescriptor], float]] = None
    ) -> float:
        """Length of the longest dependency chain in the graph."""
        return max(self._path_lengths(weight), default=0.0)

    def summary(self) -> Dict[str, object]:
        """Scalar graph metrics (handy for sweep rows and reports).

        Computed once and cached (the graph is immutable after
        construction); every call returns a fresh copy so callers may
        mutate the result freely.
        """
        if self._summary is None:
            self._summary = {
                "num_tasks": len(self),
                "num_levels": len(self.levels()),
                "width": self.width(),
                "critical_path_tasks": int(self.critical_path_length()),
                "kind_counts": {k.value: v for k, v in sorted(
                    self.kind_counts().items(), key=lambda kv: kv[0].value)},
            }
        out = dict(self._summary)
        out["kind_counts"] = dict(out["kind_counts"])
        return out


class BoundedCache(dict):
    """A dict whose entries' sizes sum to at most a bound, oldest out.

    :meth:`put` files an entry as the newest, first evicting the oldest
    ones until it fits; an entry larger than the bound alone is not
    stored.  ``held`` is the running total of ``size_of(value)`` over the
    entries, so a put costs only its evictions.  Mutate it only through
    :meth:`put` and :meth:`clear`, which keep ``held`` true.
    """

    def __init__(self, size_of: Callable[[object], int]):
        super().__init__()
        self.size_of = size_of
        self.held = 0

    def put(self, key, value, bound: int) -> None:
        if key in self:
            self.held -= self.size_of(self.pop(key))
        size = self.size_of(value)
        if size > bound:
            return
        while self.held + size > bound:
            self.held -= self.size_of(self.pop(next(iter(self))))
        self[key] = value
        self.held += size

    def clear(self) -> None:
        super().clear()
        self.held = 0


#: Process-wide cache of built task graphs, sized by their tasks.  Large
#: sweeps re-decompose the same ``(workload, n, tile)`` point for every
#: schedule variant; the graphs are identical each time, so the builders
#: reuse them through :meth:`AlgorithmsByBlocks._graph`.
_GRAPH_CACHE = BoundedCache(len)

#: Bound on the tasks of all cached graphs together: tracemalloc measured
#: a built graph (Cholesky 4096^2) keeping 316-328 bytes per task with its
#: summary and 348 with critical-path ranks too (tile 64), so 600,000
#: tasks keep the cache under 256 MiB.
GRAPH_CACHE_TASKS = 600_000


def clear_graph_cache() -> None:
    """Drop every cached task graph (frees their arrays)."""
    _GRAPH_CACHE.clear()


class AlgorithmsByBlocks:
    """Host-library decomposition of large problems into tile task graphs.

    ``tile`` is the edge length of one square tile; it must be a positive
    multiple of the core dimension ``nr`` so that every tile kernel maps
    cleanly onto the PE mesh.  Each builder only yields its algorithm's
    steps, ``(kind, output, inputs[, alpha, transpose_b])`` in program
    order; :meth:`_graph` derives every task's footprint and dependencies.
    """

    def __init__(self, tile: int, nr: int = 4):
        if nr < 2:
            raise ValueError(f"core dimension nr must be >= 2, got nr={nr}")
        if tile < nr:
            raise ValueError(f"tile size {tile} is smaller than the core "
                             f"dimension nr={nr}")
        if tile % nr != 0:
            raise ValueError(f"tile size {tile} is not a multiple of the core "
                             f"dimension nr={nr}")
        self.tile = tile
        self.nr = nr

    def _graph(self, key: Tuple, steps: Callable[[], Iterable[Tuple]],
               in_place: bool = True) -> TaskGraph:
        """Build ``key``'s graph from its ``steps()``, or reuse an identical one.

        Each step becomes a task, numbered from 0, with the footprint of
        :func:`task_footprint` (``in_place`` for the factorizations) and a
        dependency on the last writer of every tile it touches: the
        read-after-write and write-after-write order.  No write-after-read
        edges are added: a later writer never waits for an earlier reader.
        Only tiled QR has such a pair (TSQRT rewrites the ``R`` of a
        diagonal tile that UNMQR reads), and UNMQR reads only the
        reflectors below that diagonal, which TSQRT keeps.

        ``key`` is ``(workload, dims...)``.  The full cache key adds tile and
        nr, which pin the exact graph a build would produce.  Reuse is safe
        because the graph is immutable and its consumers attach only
        shareable derived state (summary, critical-path ranks).
        """
        full_key = key + (self.tile, self.nr)
        graph = _GRAPH_CACHE.get(full_key)
        if graph is None:
            graph = TaskGraph._from_steps(key[0], steps, in_place)
            _GRAPH_CACHE.put(full_key, graph, GRAPH_CACHE_TASKS)
        return graph

    def _check_blocking(self, **dims: int) -> None:
        for name, d in dims.items():
            if d <= 0:
                raise ValueError(f"dimension {name}={d} must be positive "
                                 f"(tile size {self.tile})")
            if d % self.tile != 0:
                raise ValueError(f"dimension {name}={d} is not a multiple of "
                                 f"the tile size {self.tile}")

    # ----------------------------------------------------------------- GEMM
    def gemm_tasks(self, m: int, n: int, k: int) -> TaskGraph:
        """Task graph for C += A B with independent C tiles.

        Tiles of C are independent of each other; the ``k`` accumulation for a
        given C tile is expressed as a chain of dependent GEMM tasks so that
        the accumulator tile is never written concurrently.
        """
        self._check_blocking(m=m, n=n, k=k)
        t = self.tile
        return self._graph(("gemm", m, n, k), functools.partial(
            self._gemm_steps, m // t, n // t, k // t), in_place=False)

    @staticmethod
    def _gemm_steps(mb: int, nb: int, kb: int) -> Iterator[Tuple]:
        for bi in range(mb):
            for bj in range(nb):
                for bk in range(kb):
                    yield _GEMM, (bi, bj), [(bi, bk), (bk, bj)]

    # ------------------------------------------------------------- Cholesky
    def cholesky_tasks(self, n: int) -> TaskGraph:
        """Task graph for a right-looking blocked Cholesky factorization.

        The classic dependency pattern: CHOL(j,j) -> TRSM(i,j) for i>j ->
        SYRK/GEMM updates of the trailing tiles.
        """
        self._check_blocking(n=n)
        return self._graph(("cholesky", n), functools.partial(
            self._cholesky_steps, n // self.tile))

    @staticmethod
    def _cholesky_steps(nb: int) -> Iterator[Tuple]:
        for j in range(nb):
            yield TaskKind.CHOLESKY, (j, j), [(j, j)]
            for i in range(j + 1, nb):
                yield TaskKind.TRSM_RIGHT_T, (i, j), [(j, j), (i, j)]
            for i in range(j + 1, nb):
                for k in range(j + 1, i + 1):
                    kind = _SYRK if i == k else _GEMM
                    yield kind, (i, k), [(i, j), (k, j)], -1.0, True

    # ------------------------------------------------------------------- LU
    def lu_tasks(self, n: int) -> TaskGraph:
        """Task graph for a right-looking tiled LU factorization (no pivoting
        across tiles).

        The dependency pattern mirrors Cholesky without symmetry:
        LU(j,j) -> TRSM_LOWER(j,k) along the block row (U panels) and
        TRSM_UPPER_RIGHT(i,j) down the block column (L panels) -> GEMM
        updates of the full trailing matrix.  Row interchanges are confined
        to the diagonal tile, so the operand must make pivoting unnecessary
        (e.g. diagonally dominant); the LU tile kernel enforces this.
        """
        self._check_blocking(n=n)
        return self._graph(("lu", n), functools.partial(
            self._lu_steps, n // self.tile))

    @staticmethod
    def _lu_steps(nb: int) -> Iterator[Tuple]:
        for j in range(nb):
            yield TaskKind.LU, (j, j), [(j, j)]
            for k in range(j + 1, nb):
                yield TaskKind.TRSM_LOWER, (j, k), [(j, j), (j, k)]
            for i in range(j + 1, nb):
                yield TaskKind.TRSM_UPPER_RIGHT, (i, j), [(j, j), (i, j)]
            for i in range(j + 1, nb):
                for k in range(j + 1, nb):
                    yield _GEMM, (i, k), [(i, j), (j, k)], -1.0

    # ------------------------------------------------------------------- QR
    def qr_tasks(self, n: int) -> TaskGraph:
        """Task graph for a tiled Householder QR factorization.

        The classic tiled-QR kernel quartet: GEQRT factors the diagonal
        tile, UNMQR applies its reflectors along the block row, TSQRT couples
        the current ``R`` with a tile below the diagonal
        (triangle-on-top-of-square QR) and TSMQR applies those reflectors to
        the corresponding pair of block rows.  The upper-triangular part of
        the final tiles holds ``R``; the reflectors stay packed below the
        diagonals with their ``tau`` scalars in the runtime's ``TAU`` side
        store.
        """
        self._check_blocking(n=n)
        return self._graph(("qr", n), functools.partial(
            self._qr_steps, n // self.tile))

    @staticmethod
    def _qr_steps(nb: int) -> Iterator[Tuple]:
        for j in range(nb):
            yield TaskKind.GEQRT, (j, j), [(j, j)]
            for k in range(j + 1, nb):
                yield _UNMQR, (j, k), [(j, j), (j, k)]
            for i in range(j + 1, nb):
                # TSQRT rewrites the R on the diagonal *and* stores the
                # reflectors in tile (i, j).
                yield _TSQRT, (i, j), [(j, j), (i, j)]
                for k in range(j + 1, nb):
                    yield _TSMQR, (i, k), [(i, j), (j, k), (i, k)]

    #: Names of the workloads :meth:`build` decomposes (the ``lap_runtime``
    #: runner's ``algorithm`` choices, which ``repro trace`` takes too).
    WORKLOADS = ("gemm", "cholesky", "lu", "qr")

    def build(self, workload: str, n: int) -> TaskGraph:
        """Build the task graph of one named ``n x n`` workload."""
        if workload == "gemm":
            return self.gemm_tasks(n, n, n)
        if workload == "cholesky":
            return self.cholesky_tasks(n)
        if workload == "lu":
            return self.lu_tasks(n)
        if workload == "qr":
            return self.qr_tasks(n)
        raise ValueError(f"unknown workload '{workload}' "
                         f"(use one of {', '.join(self.WORKLOADS)})")
