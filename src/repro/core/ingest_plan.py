"""Fused ingestion plane: the whole repetition x level x row fan-out as
stacked kernels.

A ``GSumEstimator`` (and both universal sketches) is structurally a large
fan-out: ``repetitions`` independent recursive sketches, each with
``levels + 1`` subsampling levels, each backed by a multi-row CountSketch
(plus an AMS F2 sketch in the one-pass configuration).  The legacy ingest
path walks that fan-out in Python per chunk — every cell re-deduplicates
and re-hashes the same items — so per-cell numpy calls, not arithmetic,
dominate the runtime.  An :class:`IngestPlan` collapses the walk:

* **One plane.**  Every cell's CountSketch table is restacked into a
  single contiguous ``(cells, rows, buckets)`` float64 plane and the cell
  keeps a *view* (``cs._table = plane[i]``).  All existing protocol code
  (merge's ``+=``, scalar updates, codec encoders, query kernels) reads
  and writes through the views unchanged; the plan scatters the whole
  chunk into the flattened plane with one ``np.add.at`` over composite
  ``(cell_index * rows + row) * buckets + bucket`` keys.
* **Stacked hash banks.**  Each cell's per-row bucket and sign
  polynomials are stacked into :class:`~repro.sketch.hashing.StackedKWiseBank`
  coefficient banks (one broadcasted Horner pass per cell instead of one
  per row), and all repetitions' subsampling bit polynomials into one
  depth bank evaluated once per chunk.
* **Per-cell hash memos.**  Hash families are immutable once constructed
  — state payloads carry tables, pools, and registers, never
  coefficients — so each cell memoizes its evaluated (key, sign) rows by
  item in append-only arrays (signs as int8) behind a sorted item index:
  a cold item costs one bank evaluation and one row write, never a
  recopy of the memo.  Steady-state chunks reduce to sorted-array
  lookups, one scatter, and one small matmul per AMS cell.

**Bit-for-bit equality.**  Updates arrive through
:func:`~repro.streams.batching.as_batch`, which coerces deltas to int64,
so every table cell and register is an *integer-valued* float64 sum far
below 2^53.  Integer float64 addition is exact and therefore associative
and commutative on this range, which makes the fused reordering (single
scatter instead of per-row ``np.bincount``; shared dedup instead of
per-cell) produce identical bits; the hash banks reproduce the per-hash
arithmetic column for column.  ``tests/test_ingest_plan.py`` and the
hypothesis interleavings in ``tests/test_property_codec_merge.py``
enforce fused == legacy == scalar across both passes, merges, spawns,
and all codecs.

**Invalidation.**  A plan is a pure cache of *structure*: it holds the
live sketch objects and the plane their tables view.  Any operation that
replaces objects or rebinds tables (``from_state`` payload loads, codec
round-trips, ``spawn_sibling``, ``begin_second_pass`` /
``import_candidates``) makes it stale.  Hash families are never among
them: siblings share family objects by reference (the lineage is used
only to construct them from a seed and to unpickle), so a spawned or
loaded sibling's rebuilt plan stacks the same polynomials.  Estimators
drop their plans via ``_invalidate_ingest_plans()`` on every such
operation, and — belt and braces — :meth:`IngestPlan.is_valid` re-walks
the object identities and ``table.base`` linkage every chunk, so even an
unanticipated mutation falls back to a rebuild (or to the legacy path)
instead of corrupting state.  Structures the plan cannot fuse (exact-oracle levels, a closed
first pass) yield the :data:`UNFUSIBLE` sentinel and the estimator keeps
its legacy loop, error surfaces included.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.heavy_hitters import OnePassGHeavyHitter, TwoPassGHeavyHitter
from repro.core.recursive_sketch import RecursiveGSumSketch
from repro.sketch.hashing import StackedKWiseBank
from repro.streams.batching import as_batch


class _Unfusible:
    """Sentinel plan: the structure cannot be fused; keep the legacy path."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNFUSIBLE"


#: Cached in an estimator's plan slot when its level sketches cannot be
#: stacked (exact-oracle levels, non-uniform dimensions, or a closed
#: first pass); the estimator then runs its legacy per-sketch loop.
UNFUSIBLE = _Unfusible()

#: Per-cell bound on memoized hash rows (items).  Beyond it, misses are
#: evaluated per chunk without being stored — correctness is unaffected,
#: steady-state speed degrades toward the bank-only cost.  A stored item
#: costs ~0.36 KB at default dimensions: an int64 plane key and an int8
#: sign per CountSketch row, an int8 sign per AMS register, 16 B of index.
CACHE_ITEMS_LIMIT = 1 << 15


def _signs8(values: np.ndarray) -> np.ndarray:
    """±1 by parity of hash values, as ``int8`` — the same signs
    ``signs_batch`` returns as float64, exact in either type.  The
    narrowing cast wraps modulo 256, which keeps the parity bit."""
    signs = values.astype(np.int8)
    signs &= 1
    signs += signs
    signs -= 1
    return signs


def _grown(rows: np.ndarray, used: int, capacity: int) -> np.ndarray:
    out = np.empty((capacity, rows.shape[1]), dtype=rows.dtype)
    out[:used] = rows[:used]
    return out


class _PlaneCell:
    """One (repetition, level) cell: a CountSketch slab of the plane, its
    stacked hash banks, optional AMS twin, and the per-item memo.

    The memo is append-only: row ``s`` of ``keys``/``signs``/``ams_rows``
    belongs to the ``s``-th item stored, the arrays grow by doubling up to
    :data:`CACHE_ITEMS_LIMIT` rows, and the sorted ``items`` with their
    ``slots`` index them, so an insert writes only the new rows."""

    __slots__ = (
        "owner",
        "cs",
        "ams",
        "twopass",
        "bucket_bank",
        "sign_bank",
        "ams_bank",
        "row_offsets",
        "items",
        "slots",
        "keys",
        "signs",
        "ams_rows",
    )

    def __init__(self, owner, cs, ams, twopass: bool, cell_index: int):
        self.owner = owner  # the (unwrapped) level heavy-hitter sketch
        self.cs = cs
        self.ams = ams
        self.twopass = twopass
        self.bucket_bank = StackedKWiseBank.from_hashes(cs._bucket_hashes)
        self.sign_bank = StackedKWiseBank.from_sign_hashes(cs._sign_hashes)
        self.ams_bank = None if ams is None else ams.sign_bank
        self.row_offsets = (
            np.arange(cs.rows, dtype=np.int64) + cell_index * cs.rows
        ) * cs.buckets
        self.items = np.empty(0, dtype=np.int64)
        self.slots = np.empty(0, dtype=np.int64)
        self.keys = np.empty((0, cs.rows), dtype=np.int64)
        self.signs = np.empty((0, cs.rows), dtype=np.int8)
        self.ams_rows = None if ams is None else np.empty((0, ams.sign_bank.count), np.int8)

    def adopt_memo(self, old: "_PlaneCell") -> None:
        """Carry a previous plan's memo over a rebuild that kept the same
        sketch objects (e.g. after a merge): hash values only depend on
        the immutable families, so they stay exact.  The old plan is
        discarded, so the arrays move rather than copy."""
        self.items = old.items
        self.slots = old.slots
        self.keys = old.keys
        self.signs = old.signs
        self.ams_rows = old.ams_rows

    def _evaluate(self, miss: np.ndarray):
        """Bank-evaluate uncached items: flat plane keys, int8 CountSketch
        signs, and (for one-pass cells) int8 AMS sign rows."""
        keys = self.bucket_bank.values_batch(miss) + self.row_offsets
        signs = _signs8(self.sign_bank.values_batch(miss))
        ams_rows = None if self.ams_bank is None else _signs8(self.ams_bank.values_batch(miss))
        return keys, signs, ams_rows

    def _gather(self, slots: np.ndarray):
        return (
            self.keys[slots],
            self.signs[slots],
            None if self.ams_rows is None else self.ams_rows[slots],
        )

    def _append(self, miss: np.ndarray, ins: np.ndarray, rows) -> np.ndarray:
        """Store the evaluated ``rows`` of the sorted ``miss`` items, whose
        insertion points in ``items`` are ``ins``; returns their slots."""
        n, m = self.items.shape[0], miss.shape[0]
        if n + m > self.keys.shape[0]:
            capacity = min(max(n + m, 2 * self.keys.shape[0]), CACHE_ITEMS_LIMIT)
            self.keys = _grown(self.keys, n, capacity)
            self.signs = _grown(self.signs, n, capacity)
            if self.ams_rows is not None:
                self.ams_rows = _grown(self.ams_rows, n, capacity)
        keys, signs, ams_rows = rows
        self.keys[n:n + m] = keys
        self.signs[n:n + m] = signs
        if ams_rows is not None:
            self.ams_rows[n:n + m] = ams_rows
        new_slots = np.arange(n, n + m, dtype=np.int64)
        self.items = np.insert(self.items, ins, miss)
        self.slots = np.insert(self.slots, ins, new_slots)
        return new_slots

    def lookup(self, su: np.ndarray):
        """(keys, signs, ams_rows) for the sorted survivor array ``su``,
        served from the memo; misses are bank-evaluated and appended
        (bounded by :data:`CACHE_ITEMS_LIMIT`).  Signs are int8; the
        scatter's multiply and the AMS matmul promote them to float64,
        exactly."""
        n = self.items.shape[0]
        ins = np.searchsorted(self.items, su)
        if n:
            pos = np.minimum(ins, n - 1)
            slots = self.slots[pos]
            miss = self.items[pos] != su
            if not miss.any():
                return self._gather(slots)
        else:
            slots = np.empty(su.shape[0], dtype=np.int64)
            miss = np.ones(su.shape[0], dtype=bool)
        fresh = su[miss]
        rows = self._evaluate(fresh)
        if n + fresh.shape[0] <= CACHE_ITEMS_LIMIT:
            slots[miss] = self._append(fresh, ins[miss], rows)
            return self._gather(slots)
        if not n:
            return rows
        # Memo full: hits come from it, misses from this evaluation.
        out = self._gather(slots)
        for part, block in zip(out, rows):
            if part is not None:
                part[miss] = block
        return out


def _unwrap_level(level_sketch):
    """A level sketch, stripped of the universal sketches' frequency-level
    wrappers (which delegate ingestion to ``.inner`` untouched)."""
    return getattr(level_sketch, "inner", level_sketch)


def _level_grid(rep_sketches: Sequence):
    """``(reps, levels, grid)`` with ``grid[r][j]`` the unwrapped level-j
    sketch of repetition r, or None when the repetitions are not
    :class:`RecursiveGSumSketch` instances of one uniform depth."""
    reps = list(rep_sketches)
    if not reps or not all(isinstance(rep, RecursiveGSumSketch) for rep in reps):
        return None
    levels = reps[0].levels
    grid = []
    for rep in reps:
        subsample, level_sketches = rep.ingest_layout()
        if rep.levels != levels or subsample.levels != levels:
            return None
        if len(level_sketches) != levels + 1:
            return None
        grid.append([_unwrap_level(s) for s in level_sketches])
    return reps, levels, grid


class _FanOutPlan:
    """What both plans share: the repetition x level cell grid, the
    all-repetition subsampling depth bank, identity validation, and the
    chunk walk that hands every surviving cell its slice of the chunk."""

    def __init__(self, rep_sketches: Sequence, cells: List[list], levels: int):
        self._reps = list(rep_sketches)
        self._cells = cells
        self._flat_cells = [cell for rep in cells for cell in rep]
        bits = []
        for rep in self._reps:
            bits.extend(rep.ingest_layout()[0].bit_hashes())
        self._depth_bank = StackedKWiseBank.from_hashes(bits)
        self._levels = int(levels)

    def is_valid(self, rep_sketches: Sequence) -> bool:
        """True when the live structure is exactly the one this plan was
        built from: same objects at every layer and each cell's own check
        (:meth:`_cell_valid`).  Checked every chunk (a few dozen identity
        tests), so any state mutation the explicit invalidation hooks miss
        degrades to a rebuild, never to divergence."""
        if len(rep_sketches) != len(self._reps):
            return False
        flat = iter(self._flat_cells)
        for rep, ref in zip(rep_sketches, self._reps):
            if rep is not ref:
                return False
            _, level_sketches = rep.ingest_layout()
            if len(level_sketches) != self._levels + 1:
                return False
            for level_sketch in level_sketches:
                if not self._cell_valid(next(flat), _unwrap_level(level_sketch)):
                    return False
        return True

    def _survivors(self, items, deltas, net_dtype):
        """Yield ``(cell, items, net)`` per surviving cell in legacy walk
        order: one dedup and one depth-bank pass per chunk.  A unique's
        depth in repetition r is the number of leading all-ones subsampling
        bits (the cumulative bit product's sum, capped at ``levels``), bit
        for bit ``subsample_r.levels_batch``; each level shrinks the
        previous level's survivor index instead of rescanning."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        ).astype(net_dtype, copy=False)
        bits = self._depth_bank.values_batch(unique)
        alive = np.cumprod(
            bits.reshape(unique.shape[0], len(self._reps), self._levels) == 1,
            axis=2,
        )
        depths = np.minimum(alive.sum(axis=2, dtype=np.int64), self._levels).T
        for d, rep_cells in zip(depths, self._cells):
            idx = None  # survivor positions into ``unique``; None = all
            su, sn = unique, net
            for j, cell in enumerate(rep_cells):
                if j:
                    idx = np.flatnonzero(d >= 1) if idx is None else idx[d[idx] >= j]
                    if idx.shape[0] == 0:
                        break
                    su, sn = unique[idx], net[idx]
                yield cell, su, sn


class IngestPlan(_FanOutPlan):
    """First-pass fused ingestion for one estimator's repetition fan-out.

    Built lazily by :func:`build_ingest_plan`; holds strong references to
    the live sketch objects, the stacked plane their CountSketch tables
    view, the hash banks, and the per-cell memos.  See the module
    docstring for the equality and invalidation contracts.
    """

    def __init__(self, rep_sketches, cells, plane: np.ndarray, levels: int):
        super().__init__(rep_sketches, cells, levels)
        self._plane = plane
        self._flat_plane = plane.reshape(-1)

    def _cell_valid(self, cell: _PlaneCell, inner) -> bool:
        """Same owner, CountSketch and AMS objects; the table still a view
        of the plane; a two-pass cell still in its first pass."""
        if inner is not cell.owner:
            return False
        cs, ams = inner.fused_cell()
        return (
            cs is cell.cs
            and ams is cell.ams
            and cs._table.base is self._plane
            and not (cell.twopass and inner.second_pass_counter is not None)
        )

    def update_batch(self, items, deltas) -> None:
        """The fused chunk ingest: one dedup, one depth-bank pass, one
        memo lookup per surviving cell, one plane-wide scatter, then the
        per-cell AMS matmuls and candidate-pool admissions — bit-for-bit
        the legacy per-sketch walk."""
        key_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        admissions = []
        for cell, su, sn in self._survivors(items, deltas, np.float64):
            keys, signs, ams_rows = cell.lookup(su)
            key_parts.append(keys.ravel())
            weight_parts.append((signs * sn[:, None]).ravel())
            if ams_rows is not None:
                cell.ams.apply_net(sn, ams_rows)
            if cell.cs.track > 0:
                admissions.append((cell.cs, su))
        if not key_parts:
            return
        np.add.at(
            self._flat_plane,
            np.concatenate(key_parts),
            np.concatenate(weight_parts),
        )
        # Pool admissions run after the scatter so an evict-by-estimate
        # prune reads its cell's fully-updated table — exactly the state
        # the legacy per-cell order (table rows, then pool) exposes.
        for cs, su in admissions:
            cs._admit_batch(cs._fresh_candidates(su))


class SecondPassIngestPlan(_FanOutPlan):
    """Fused second-pass dispatch for two-pass estimators: one dedup and
    one depth-bank pass per chunk, then each surviving cell's open
    :class:`~repro.sketch.exact.ExactCounter` tabulates its ``(items,
    net)`` slice directly — the counter's own (restricted, aggregated)
    arithmetic, so end state is identical to the legacy fan-out.  Cells
    are ``(owner, counter)`` pairs."""

    def _cell_valid(self, cell: tuple, inner) -> bool:
        owner, counter = cell
        return inner is owner and inner.second_pass_counter is counter

    def update_batch_second_pass(self, items, deltas) -> None:
        for (_, counter), su, sn in self._survivors(items, deltas, np.int64):
            counter.update_batch(su, sn)


# --------------------------------------------------------------- builders


def build_ingest_plan(
    rep_sketches: Sequence, previous: "IngestPlan | None" = None
):
    """An :class:`IngestPlan` over the live repetition sketches, or
    :data:`UNFUSIBLE` when the structure cannot be stacked.  Restacks
    every CountSketch table into a fresh plane (rebinding ``cs._table``
    to a view — values copied exactly, protocol state untouched) and, on
    a rebuild, carries over per-cell hash memos for cells whose sketch
    objects survived (hash families are immutable, so the memo stays
    exact)."""
    layout = _level_grid(rep_sketches)
    if layout is None:
        return UNFUSIBLE
    reps, levels, grid = layout
    cell_specs = []  # (owner, cs, ams, twopass) in legacy walk order
    for inner in (inner for row in grid for inner in row):
        twopass = isinstance(inner, TwoPassGHeavyHitter)
        if not (twopass or isinstance(inner, OnePassGHeavyHitter)):
            return UNFUSIBLE
        if twopass and inner.second_pass_counter is not None:
            return UNFUSIBLE  # first pass closed; legacy path errors
        cs, ams = inner.fused_cell()
        cell_specs.append((inner, cs, None if twopass else ams, twopass))
    first = cell_specs[0][1]
    shape = (first.rows, first.buckets, first._sign_hashes[0].base_hash.independence)
    for _, cs, _, _ in cell_specs:
        if (cs.rows, cs.buckets, cs._sign_hashes[0].base_hash.independence) != shape:
            return UNFUSIBLE
    old_memos = {}
    if previous is not None and not isinstance(previous, _Unfusible):
        old_memos = {id(cell.cs): cell for cell in previous._flat_cells}
    plane = np.empty((len(cell_specs), first.rows, first.buckets), dtype=np.float64)
    flat_cells: List[_PlaneCell] = []
    for i, (owner, cs, ams, twopass) in enumerate(cell_specs):
        plane[i] = cs._table
        cs._table = plane[i]
        cell = _PlaneCell(owner, cs, ams, twopass, i)
        old = old_memos.get(id(cs))
        if old is not None and old.cs is cs:
            cell.adopt_memo(old)
        flat_cells.append(cell)
    per_rep = levels + 1
    cells = [flat_cells[r * per_rep : (r + 1) * per_rep] for r in range(len(reps))]
    return IngestPlan(reps, cells, plane, levels)


def build_second_pass_plan(rep_sketches: Sequence):
    """A :class:`SecondPassIngestPlan` over the live repetition sketches,
    or :data:`UNFUSIBLE` when any level is not an open two-pass cell."""
    layout = _level_grid(rep_sketches)
    if layout is None:
        return UNFUSIBLE
    reps, levels, grid = layout
    for inner in (inner for row in grid for inner in row):
        if not isinstance(inner, TwoPassGHeavyHitter):
            return UNFUSIBLE
        if inner.second_pass_counter is None:
            return UNFUSIBLE  # pass not begun; legacy path errors
    cells = [[(inner, inner.second_pass_counter) for inner in row] for row in grid]
    return SecondPassIngestPlan(reps, cells, levels)


# ----------------------------------------------------------------- wiring


def fused_update_batch(owner, items, deltas) -> bool:
    """Route a first-pass chunk through ``owner``'s cached plan, building
    or rebuilding it as needed.  Returns False when the structure is
    unfusible — the caller then runs its legacy loop (preserving error
    surfaces such as updating a closed first pass)."""
    plan = owner._ingest_plan
    if plan is None:
        plan = owner._ingest_plan = build_ingest_plan(owner._sketches)
    elif plan is not UNFUSIBLE and not plan.is_valid(owner._sketches):
        plan = owner._ingest_plan = build_ingest_plan(
            owner._sketches, previous=plan
        )
    if plan is UNFUSIBLE:
        return False
    plan.update_batch(items, deltas)
    return True


def fused_update_batch_second_pass(owner, items, deltas) -> bool:
    """Second-pass analogue of :func:`fused_update_batch`."""
    plan = owner._second_plan
    if plan is None:
        plan = owner._second_plan = build_second_pass_plan(owner._sketches)
    elif plan is not UNFUSIBLE and not plan.is_valid(owner._sketches):
        plan = owner._second_plan = build_second_pass_plan(owner._sketches)
    if plan is UNFUSIBLE:
        return False
    plan.update_batch_second_pass(items, deltas)
    return True
