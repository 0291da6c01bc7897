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
  item.  Steady-state chunks reduce to sorted-array lookups, one scatter,
  and one small matmul per AMS cell.

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

import os
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
#: steady-state speed degrades toward the bank-only cost.  The AMS sign
#: rows dominate the footprint (~1.8 KB per item at default dimensions).
CACHE_ITEMS_LIMIT = int(os.environ.get("REPRO_INGEST_CACHE_ITEMS", str(1 << 15)))


class _PlaneCell:
    """One (repetition, level) cell: a CountSketch slab of the plane, its
    stacked hash banks, optional AMS twin, and the per-item memo."""

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
        self.keys = np.empty((0, cs.rows), dtype=np.int64)
        self.signs = np.empty((0, cs.rows), dtype=np.float64)
        self.ams_rows = (
            None
            if self.ams_bank is None
            else np.empty((0, self.ams_bank.count), dtype=np.float64)
        )

    def adopt_memo(self, old: "_PlaneCell") -> None:
        """Carry a previous plan's memo over a rebuild that kept the same
        sketch objects (e.g. after a merge): hash values only depend on
        the immutable families, so they stay exact."""
        self.items = old.items
        self.keys = old.keys
        self.signs = old.signs
        self.ams_rows = old.ams_rows

    def _evaluate(self, miss: np.ndarray):
        """Bank-evaluate uncached items: flat plane keys, CountSketch
        signs, and (for one-pass cells) AMS sign rows."""
        keys = self.bucket_bank.values_batch(miss) + self.row_offsets
        signs = self.sign_bank.signs_batch(miss)
        ams_rows = (
            None if self.ams_bank is None else self.ams_bank.signs_batch(miss)
        )
        return keys, signs, ams_rows

    def lookup(self, su: np.ndarray):
        """(keys, signs, ams_rows) for the sorted survivor array ``su``,
        served from the memo; misses are bank-evaluated and inserted
        (bounded by :data:`CACHE_ITEMS_LIMIT`)."""
        cached = self.items
        n = cached.shape[0]
        if n:
            pos = np.searchsorted(cached, su)
            pos[pos == n] = n - 1
            hit = cached[pos] == su
            if hit.all():
                return (
                    self.keys[pos],
                    self.signs[pos],
                    None if self.ams_rows is None else self.ams_rows[pos],
                )
            miss = su[~hit]
        else:
            hit = None
            miss = su
        keys_m, signs_m, ams_m = self._evaluate(miss)
        if n + miss.shape[0] <= CACHE_ITEMS_LIMIT:
            merged = np.concatenate([cached, miss])
            order = np.argsort(merged, kind="stable")
            self.items = merged[order]
            self.keys = np.concatenate([self.keys, keys_m])[order]
            self.signs = np.concatenate([self.signs, signs_m])[order]
            if self.ams_rows is not None:
                self.ams_rows = np.concatenate([self.ams_rows, ams_m])[order]
            pos = np.searchsorted(self.items, su)
            return (
                self.keys[pos],
                self.signs[pos],
                None if self.ams_rows is None else self.ams_rows[pos],
            )
        # Memo full: assemble this chunk's rows without storing the misses.
        if hit is None:
            return keys_m, signs_m, ams_m
        keys = np.empty((su.shape[0], self.keys.shape[1]), dtype=np.int64)
        signs = np.empty((su.shape[0], self.signs.shape[1]), dtype=np.float64)
        keys[hit] = self.keys[pos[hit]]
        keys[~hit] = keys_m
        signs[hit] = self.signs[pos[hit]]
        signs[~hit] = signs_m
        if self.ams_rows is None:
            return keys, signs, None
        ams_rows = np.empty((su.shape[0], self.ams_rows.shape[1]), dtype=np.float64)
        ams_rows[hit] = self.ams_rows[pos[hit]]
        ams_rows[~hit] = ams_m
        return keys, signs, ams_rows


def _unwrap_level(level_sketch):
    """A level sketch, stripped of the universal sketches' frequency-level
    wrappers (which delegate ingestion to ``.inner`` untouched)."""
    return getattr(level_sketch, "inner", level_sketch)


def _depth_bank(rep_sketches: Sequence[RecursiveGSumSketch]) -> StackedKWiseBank:
    """All repetitions' subsampling bit polynomials in one bank."""
    bits = []
    for rep in rep_sketches:
        subsample, _ = rep.ingest_layout()
        bits.extend(subsample.bit_hashes())
    return StackedKWiseBank.from_hashes(bits)


class IngestPlan:
    """First-pass fused ingestion for one estimator's repetition fan-out.

    Built lazily by :func:`build_ingest_plan`; holds strong references to
    the live sketch objects, the stacked plane their CountSketch tables
    view, the hash banks, and the per-cell memos.  See the module
    docstring for the equality and invalidation contracts.
    """

    def __init__(
        self,
        rep_sketches: Sequence[RecursiveGSumSketch],
        cells: List[List[_PlaneCell]],
        plane: np.ndarray,
        depth_bank: StackedKWiseBank,
        levels: int,
    ):
        self._reps = list(rep_sketches)
        self._cells = cells
        self._flat_cells = [cell for rep in cells for cell in rep]
        self._plane = plane
        self._flat_plane = plane.reshape(-1)
        self._depth_bank = depth_bank
        self._levels = int(levels)

    # ------------------------------------------------------------ validity

    def is_valid(self, rep_sketches: Sequence) -> bool:
        """True when the live structure is exactly the one this plan was
        built from: same objects at every layer, every CountSketch table
        still a view of the plane, every two-pass cell still in its first
        pass.  Checked every chunk (a few dozen identity tests), so any
        state mutation the explicit invalidation hooks miss degrades to a
        rebuild, never to divergence."""
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
                cell = next(flat)
                inner = _unwrap_level(level_sketch)
                if inner is not cell.owner:
                    return False
                cs, ams = inner.fused_cell()
                if cs is not cell.cs or ams is not cell.ams:
                    return False
                if cs._table.base is not self._plane:
                    return False
                if cell.twopass and inner.second_pass_counter is not None:
                    return False
        return True

    # ------------------------------------------------------------- ingest

    def _depths(self, unique: np.ndarray) -> np.ndarray:
        """Per-repetition subsampling depths of the chunk's unique items,
        shape ``(repetitions, len(unique))``; row ``r`` equals
        ``min(subsample_r.levels_batch(unique), levels)`` bit for bit
        (depth = number of leading all-ones bits = sum of the cumulative
        bit product)."""
        bits = self._depth_bank.values_batch(unique)
        alive = np.cumprod(
            bits.reshape(unique.shape[0], len(self._reps), self._levels) == 1,
            axis=2,
        )
        return np.minimum(alive.sum(axis=2, dtype=np.int64), self._levels).T

    def update_batch(self, items, deltas) -> None:
        """The fused chunk ingest: one dedup, one depth-bank pass, one
        memo lookup per surviving cell, one plane-wide scatter, then the
        per-cell AMS matmuls and candidate-pool admissions — bit-for-bit
        the legacy per-sketch walk."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        )
        depths = self._depths(unique)
        key_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        admissions = []
        for r, rep_cells in enumerate(self._cells):
            d = depths[r]
            idx = None  # survivor positions into ``unique``; None = all
            su, sn = unique, net
            for j, cell in enumerate(rep_cells):
                if j:
                    idx = np.flatnonzero(d >= 1) if idx is None else idx[d[idx] >= j]
                    if idx.shape[0] == 0:
                        break
                    su = unique[idx]
                    sn = net[idx]
                keys, signs, ams_rows = cell.lookup(su)
                key_parts.append(keys.ravel())
                weight_parts.append((signs * sn[:, None]).ravel())
                if ams_rows is not None:
                    cell.ams.apply_net(sn, ams_rows)
                if cell.cs.track > 0:
                    admissions.append((cell.cs, su))
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


class SecondPassIngestPlan:
    """Fused second-pass dispatch for two-pass estimators: one dedup and
    one depth-bank pass per chunk, then each surviving cell's open
    :class:`~repro.sketch.exact.ExactCounter` tabulates its ``(items,
    net)`` slice directly — the counter's own (restricted, aggregated)
    arithmetic, so end state is identical to the legacy fan-out."""

    def __init__(
        self,
        rep_sketches: Sequence[RecursiveGSumSketch],
        cells: List[List[tuple]],
        depth_bank: StackedKWiseBank,
        levels: int,
    ):
        self._reps = list(rep_sketches)
        self._cells = cells
        self._flat_cells = [cell for rep in cells for cell in rep]
        self._depth_bank = depth_bank
        self._levels = int(levels)

    def is_valid(self, rep_sketches: Sequence) -> bool:
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
                owner, counter = next(flat)
                inner = _unwrap_level(level_sketch)
                if inner is not owner:
                    return False
                if inner.second_pass_counter is not counter or counter is None:
                    return False
        return True

    def _depths(self, unique: np.ndarray) -> np.ndarray:
        bits = self._depth_bank.values_batch(unique)
        alive = np.cumprod(
            bits.reshape(unique.shape[0], len(self._reps), self._levels) == 1,
            axis=2,
        )
        return np.minimum(alive.sum(axis=2, dtype=np.int64), self._levels).T

    def update_batch_second_pass(self, items, deltas) -> None:
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        ).astype(np.int64)
        depths = self._depths(unique)
        for r, rep_cells in enumerate(self._cells):
            d = depths[r]
            idx = None
            su, sn = unique, net
            for j, (_, counter) in enumerate(rep_cells):
                if j:
                    idx = np.flatnonzero(d >= 1) if idx is None else idx[d[idx] >= j]
                    if idx.shape[0] == 0:
                        break
                    su = unique[idx]
                    sn = net[idx]
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
    reps = list(rep_sketches)
    if not reps:
        return UNFUSIBLE
    cell_specs = []  # (owner, cs, ams, twopass) in legacy walk order
    levels = None
    for rep in reps:
        if not isinstance(rep, RecursiveGSumSketch):
            return UNFUSIBLE
        subsample, level_sketches = rep.ingest_layout()
        if levels is None:
            levels = rep.levels
        elif rep.levels != levels:
            return UNFUSIBLE
        if len(level_sketches) != levels + 1 or subsample.levels != levels:
            return UNFUSIBLE
        for level_sketch in level_sketches:
            inner = _unwrap_level(level_sketch)
            if isinstance(inner, OnePassGHeavyHitter):
                cs, ams = inner.fused_cell()
                cell_specs.append((inner, cs, ams, False))
            elif isinstance(inner, TwoPassGHeavyHitter):
                if inner.second_pass_counter is not None:
                    return UNFUSIBLE  # first pass closed; legacy path errors
                cs, ams = inner.fused_cell()
                cell_specs.append((inner, cs, None, True))
            else:
                return UNFUSIBLE
    rows = cell_specs[0][1].rows
    buckets = cell_specs[0][1].buckets
    sign_independence = cell_specs[0][1]._sign_hashes[0].base_hash.independence
    for _, cs, _, _ in cell_specs:
        if (
            cs.rows != rows
            or cs.buckets != buckets
            or cs._sign_hashes[0].base_hash.independence != sign_independence
        ):
            return UNFUSIBLE
    old_memos = {}
    if previous is not None and not isinstance(previous, _Unfusible):
        old_memos = {id(cell.cs): cell for cell in previous._flat_cells}
    plane = np.empty((len(cell_specs), rows, buckets), dtype=np.float64)
    flat_cells: List[_PlaneCell] = []
    for i, (owner, cs, ams, twopass) in enumerate(cell_specs):
        plane[i] = cs._table
        cs._table = plane[i]
        cell = _PlaneCell(owner, cs, ams, twopass, i)
        old = old_memos.get(id(cs))
        if old is not None and old.cs is cs:
            cell.adopt_memo(old)
        flat_cells.append(cell)
    per_rep = len(flat_cells) // len(reps)
    cells = [
        flat_cells[r * per_rep : (r + 1) * per_rep] for r in range(len(reps))
    ]
    return IngestPlan(reps, cells, plane, _depth_bank(reps), levels)


def build_second_pass_plan(rep_sketches: Sequence):
    """A :class:`SecondPassIngestPlan` over the live repetition sketches,
    or :data:`UNFUSIBLE` when any level is not an open two-pass cell."""
    reps = list(rep_sketches)
    if not reps:
        return UNFUSIBLE
    cells: List[List[tuple]] = []
    levels = None
    for rep in reps:
        if not isinstance(rep, RecursiveGSumSketch):
            return UNFUSIBLE
        subsample, level_sketches = rep.ingest_layout()
        if levels is None:
            levels = rep.levels
        elif rep.levels != levels:
            return UNFUSIBLE
        if len(level_sketches) != levels + 1 or subsample.levels != levels:
            return UNFUSIBLE
        rep_cells = []
        for level_sketch in level_sketches:
            inner = _unwrap_level(level_sketch)
            if not isinstance(inner, TwoPassGHeavyHitter):
                return UNFUSIBLE
            counter = inner.second_pass_counter
            if counter is None:
                return UNFUSIBLE  # pass not begun; legacy path errors
            rep_cells.append((inner, counter))
        cells.append(rep_cells)
    return SecondPassIngestPlan(reps, cells, _depth_bank(reps), levels)


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
