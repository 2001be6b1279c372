"""Keypoint descriptor matching with a ratio test plus a cosine gate.

A query keypoint matches a frame keypoint only when both hold:

* ratio test: squared distance to the nearest frame descriptor divided by
  squared distance to the second nearest is below ``tau1**2``
* cosine gate: cosine similarity with the nearest descriptor exceeds ``tau2``

Correspondence counts are independent per query keypoint (several query
keypoints may agree on one frame keypoint; no one-to-one constraint).

Squared distances come from float32 matrix products
(``|g|^2 + |f|^2 - 2 g.f``), one per chunk of candidate frames, which is
what keeps full-database scans tractable: time goes to BLAS, and memory
stays bounded by the chunk size whatever the database size.
"""

import logging
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EmptyCandidatesError, FrameTooSmallError

logger = logging.getLogger(__name__)

DESCRIPTOR_DIM = 128

_E_BYTES = 4 * 2**20
"""Most bytes of E, the float32 product of a query and candidate rows, at once.

Chosen by timing scans of loaded 1000-frame (200 keypoints) and
10,000-frame (64 keypoints) drives, windowed and not, on a 2-core Xeon
with OpenBLAS: 2 MiB chunks scanned 10-25% slower than 4-8 MiB ones, and
4, 6 and 8 MiB were level within the run-to-run noise, so the smallest of
those keeps peak memory lowest.
"""


class DescriptorSet:
    """Immutable (k, 128) float32 block of keypoint descriptors for one image.

    A set can also be a zero-copy window of rows of a larger set, as the
    frames of a synthetic drive are of its landmark pool and the frames of
    a loaded database are of its descriptor block. Scans use that: windows
    of one block are scored straight from the block's rows, and rows that
    overlapping windows share are scored once.
    """

    __slots__ = ("_array", "_root", "_start", "_norms")

    def __init__(self, array):
        arr = np.array(array, dtype=np.float32, order="C", ndmin=2, copy=True)
        if arr.ndim != 2 or arr.shape[1] != DESCRIPTOR_DIM:
            raise ValueError(f"expected shape (k, {DESCRIPTOR_DIM}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("descriptor components must be finite")
        arr.setflags(write=False)
        self._init(arr, None, 0)

    def _init(self, arr: np.ndarray, root: Optional["DescriptorSet"], start: int) -> None:
        # root is the set whose rows this one is a window of, None for a set
        # that owns its rows (a self-reference would keep dead sets alive
        # until the cycle collector runs)
        self._array = arr
        self._root = root
        self._start = start
        self._norms = None

    @property
    def _block(self) -> "DescriptorSet":
        return self if self._root is None else self._root

    @classmethod
    def empty(cls) -> "DescriptorSet":
        return cls(np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DescriptorSet":
        # Trusted zero-copy constructor for generators that already hold a
        # read-only, validated float32 block (e.g. a landmark pool).
        assert arr.dtype == np.float32 and arr.ndim == 2 and arr.shape[1] == DESCRIPTOR_DIM
        assert arr.flags.c_contiguous and not arr.flags.writeable
        obj = cls.__new__(cls)
        obj._init(arr, None, 0)
        return obj

    def _window(self, start: int, stop: int) -> "DescriptorSet":
        """Zero-copy set of rows [start, stop) of this set."""
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"rows [{start}, {stop}) outside a set of {len(self)}")
        obj = DescriptorSet.__new__(DescriptorSet)
        obj._init(self._array[start:stop], self._block, self._start + start)
        return obj

    @property
    def array(self) -> np.ndarray:
        """Read-only (k, 128) float32 view."""
        return self._array

    @property
    def norms(self) -> np.ndarray:
        """Read-only (k,) float32 squared row norms, computed once per block."""
        if self._norms is None:
            root = self._block
            if root._norms is None:
                norms = np.einsum("ij,ij->i", root._array, root._array)
                norms.setflags(write=False)
                root._norms = norms
            self._norms = root._norms[self._start : self._start + len(self)]
        return self._norms

    def __len__(self) -> int:
        return self._array.shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        return self._array[i]

    def __repr__(self) -> str:
        return f"DescriptorSet(k={len(self)})"


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds for the two match criteria.

    tau1 gates the distance ratio (applied squared, so the comparison is
    ``d1^2 / d2^2 < tau1^2``), tau2 the cosine similarity with the nearest
    neighbour.
    """

    tau1: float = 0.8
    tau2: float = 0.97

    def __post_init__(self):
        if not 0.0 < self.tau1 < 1.0:
            raise ValueError(f"tau1 must be in (0, 1), got {self.tau1}")
        if not -1.0 < self.tau2 <= 1.0:
            raise ValueError(f"tau2 must be in (-1, 1], got {self.tau2}")


def _candidate_rows(sets: Sequence[DescriptorSet], max_cols: int) -> Iterator[tuple]:
    """Chunks of whole sets, each scored by one product over at most max_cols rows.

    Yields (lo, rows, norms, first, widths) per chunk: its sets start at
    sets[lo], rows and norms are the rows to score for them and their
    squared norms, first holds each set's first row within rows and widths
    its row count.

    Consecutive sets that are overlapping or touching windows of one block
    merge into one run of that block's rows. A chunk of one run is used in
    place; several (e.g. either side of an exclusion gap, or independent
    sets) are concatenated in candidate order. A chunk closes before a set
    that would take it past max_cols rows, so a long run is split at a
    set's edge and a set wider than max_cols is a chunk of its own.
    """
    runs = []  # [root, lo, hi] per run of block rows in the open chunk
    run_of, firsts, widths = [], [], []  # per set in the open chunk
    last, cols, lo = None, 0, 0  # last run, rows of the open chunk, its first set
    for s in sets:
        a = s._start
        k = len(s._array)
        if last is not None and s._block is last[0] and a <= last[2] and a + k >= last[1]:
            # conditionals, not min/max: this runs once per candidate set
            run_lo = a if a < last[1] else last[1]
            run_hi = a + k if a + k > last[2] else last[2]
            grow = run_hi - run_lo - (last[2] - last[1])
        else:
            last, grow = None, k
        if cols + grow > max_cols and widths:
            yield lo, *_chunk(runs, run_of, firsts, widths)
            lo += len(widths)
            runs, run_of, firsts, widths = [], [], [], []
            last, cols, grow = None, 0, k
        if last is None:
            last = [s._block, a, a + k]
            runs.append(last)
        else:
            last[1], last[2] = run_lo, run_hi
        cols += grow
        run_of.append(len(runs) - 1)
        firsts.append(a)
        widths.append(k)
    if widths:
        yield lo, *_chunk(runs, run_of, firsts, widths)


def _chunk(runs: list, run_of: list, firsts: list, widths: list) -> tuple[np.ndarray, ...]:
    """Rows, norms, first rows and widths of one chunk of _candidate_rows."""
    run = np.array(run_of, dtype=np.int64)
    run_lo = np.array([lo for _, lo, _ in runs], dtype=np.int64)
    offsets = np.cumsum([0] + [hi - lo for _, lo, hi in runs])
    first = offsets[run] + np.array(firsts, dtype=np.int64) - run_lo[run]
    widths = np.array(widths, dtype=np.int64)
    if len(runs) == 1:
        root, lo, hi = runs[0]
        return root.array[lo:hi], root.norms[lo:hi], first, widths
    rows = np.concatenate([root.array[lo:hi] for root, lo, hi in runs])
    norms = np.concatenate([root.norms[lo:hi] for root, lo, hi in runs])
    return rows, norms, first, widths


def _cosine_gate(qq: np.ndarray, e1: np.ndarray, fn1: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Cosine gate on float64 |g|^2, nearest E value and nearest |f|^2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = ((fn1 - e1) / 2.0) / np.sqrt(qq * fn1)
    return (qq > 0.0) & (fn1 > 0.0) & (np.clip(cos, -1.0, 1.0) > cfg.tau2)


def _gate_bound(qq: np.ndarray, fmin: float, fmax: float, tau2: float) -> np.ndarray:
    """Per query row, a float32 value above every E entry that can pass the cosine gate.

    The gate needs g.f > tau2 |g||f|, i.e. an entry e = |f|^2 - 2 g.f
    below |f|^2 - 2 tau2 |g||f|. Over |f|^2 in [fmin, fmax] that is convex
    in |f| whatever the sign of tau2, so it peaks at an end; for tau2 <= 0
    it lies above nearly every entry and screens out little. The slack,
    relative 1e-9, covers the float64 rounding of the gate and of this
    bound many times over; a non-finite bound screens nothing out.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        ends = np.maximum(fmin - 2.0 * tau2 * np.sqrt(qq * fmin), fmax - 2.0 * tau2 * np.sqrt(qq * fmax))
        bound = ends + 1e-9 * (np.abs(ends) + fmax + 2.0 * np.sqrt(qq * fmax))
        bound[np.isnan(bound)] = np.inf
        # rounded up to float32, so E is compared in its own precision
        narrow = bound.astype(np.float32)
    return np.where(narrow < bound, np.nextafter(narrow, np.float32(np.inf)), narrow)


def _gate_segments(seg: np.ndarray, first: np.ndarray, qq: np.ndarray, fnorms: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Matched index within every row of seg, -1 where a gate fails.

    Each row of seg is one query row's E entries over one frame; first
    holds the frame's first column of E and qq the query row's |g|^2. The
    nearest neighbour alone decides the cosine gate, so the second nearest
    is only extracted for the rows that pass it.
    """
    j1 = seg.argmin(axis=1)
    e1 = seg[np.arange(len(seg)), j1].astype(np.float64)
    near = np.flatnonzero(_cosine_gate(qq, e1, fnorms[first + j1].astype(np.float64), cfg))
    rest = seg[near]
    rest[np.arange(len(near)), j1[near]] = np.inf
    d1 = np.maximum(qq[near] + e1[near], 0.0)
    d2 = np.maximum(qq[near] + rest.min(axis=1).astype(np.float64), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d1 / d2
    match = np.full(len(seg), -1, dtype=np.int64)
    passed = (d2 > 0.0) & (ratio < cfg.tau1 * cfg.tau1)
    match[near[passed]] = j1[near[passed]]
    return match


def _windows_holding(r: np.ndarray, c: np.ndarray, starts: np.ndarray, stops: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, window) pairs, among them every one where window [starts[s], stops[s]) holds an entry (r, c).

    Over the windows sorted by start, an entry can only lie in those that
    start at or before c, after the leading ones that all end at or before
    c: one range per entry. Each row adds +1 where a range begins and -1
    past its end, and a running sum marks the windows covered, so the work
    grows with the entries and the (row, window) pairs, not their product.
    Where windows nest, a range can take in a window that ends at or
    before c. Such a pair holds no entry below the cosine gate's bound, so
    its nearest neighbour fails the gate: the extra pair costs time, not
    results.
    """
    n = len(starts)
    order = np.argsort(starts, kind="stable")
    first = np.searchsorted(np.maximum.accumulate(stops[order]), c, side="right")
    past = np.searchsorted(starts[order], c, side="right")
    # every range ends in its own row, so one running sum over all rows
    # returns to zero at each row's end, slot n
    at, size = r * (n + 1), m * (n + 1)
    covered = np.cumsum(np.bincount(at + first, minlength=size) - np.bincount(at + past, minlength=size)) > 0
    rows, i = np.divmod(np.flatnonzero(covered), n + 1)
    return rows, order[i]


def _matches(query: DescriptorSet, sets: Sequence[DescriptorSet], cfg: MatchConfig) -> np.ndarray:
    """(m, p) index of the frame keypoint each query row matches, -1 for none.

    The candidates are scored in chunks of whole sets (_candidate_rows),
    so E, the product's output, holds at most _E_BYTES at a time. Per
    chunk one float32 product fills E[i, c] = |f_c|^2 - 2 g_i.f_c over its
    rows: that is d^2 minus the per-row constant |g_i|^2, which argmin does
    not need. The -2 is folded into the query, an exact scaling. Ties on
    the nearest neighbour go to the lowest index.

    Frames may overlap and share columns of E, so each column is screened
    once: a frame whose entries in a query row all lie above the cosine
    gate's bound cannot match that row, whatever its nearest is, and only
    the (row, frame) pairs left get a nearest-neighbour search.
    """
    m, p = len(query), len(sets)
    q = query.array * np.float32(-2.0)
    qq = query.norms.astype(np.float64)
    match = np.full((m, p), -1, dtype=np.int64)
    # neither E nor a chunk's concatenated rows exceed _E_BYTES
    max_cols = max(1, _E_BYTES // (4 * max(m, DESCRIPTOR_DIM)))
    for lo, rows, fnorms, first, widths in _candidate_rows(sets, max_cols):
        e = q @ rows.T
        e += fnorms
        bound = _gate_bound(qq, float(fnorms.min()), float(fnorms.max()), cfg.tau2)
        # flatnonzero: 2-d np.nonzero is several times slower
        r, c = np.divmod(np.flatnonzero(e < bound[:, None]), e.shape[1])
        r, f = _windows_holding(r, c, first, first + widths, m)
        kf = widths[f]
        for k in np.unique(widths):
            pick = np.flatnonzero(kf == k)
            rk, fk = r[pick], f[pick]
            seg = np.lib.stride_tricks.sliding_window_view(e, k, axis=1)[rk, first[fk]]
            match[rk, lo + fk] = _gate_segments(seg, first[fk], qq[rk], fnorms, cfg)
        del e, seg  # before the next chunk's product, so one E is alive at a time
    return match


def count_correspondences(query: DescriptorSet, frame: DescriptorSet, cfg: MatchConfig) -> int:
    """Number of query keypoints that match somewhere in the frame.

    Raises FrameTooSmallError for a frame of fewer than two descriptors
    (the ratio test needs a second nearest), unless the query is empty.
    """
    if len(query) == 0:
        return 0
    if len(frame) < 2:
        raise FrameTooSmallError(f"frame has {len(frame)} descriptors, ratio test needs at least 2")
    return int((_matches(query, [frame], cfg) >= 0).sum())


def _segment_counts(query: DescriptorSet, sets: Sequence[DescriptorSet], cfg: MatchConfig) -> np.ndarray:
    """Correspondence counts of one query against several frames at once."""
    return (_matches(query, sets, cfg) >= 0).sum(axis=0).astype(np.int64)


def best_match(
    query: DescriptorSet,
    candidates: Sequence[tuple[int, DescriptorSet]],
    cfg: MatchConfig,
) -> tuple[int, int]:
    """Pick the candidate frame with the most correspondences.

    Parameters
    ----------
    query : DescriptorSet
        Query image descriptors.
    candidates : sequence of (frame_id, DescriptorSet)
        Frames to score. Frames with fewer than two descriptors are scored
        zero (the ratio test is undefined for them) and logged.
    cfg : MatchConfig

    Returns
    -------
    (frame_id, count)
        Ties on the count resolve to the lowest frame_id, independent of
        candidate order. The count may be zero.
    """
    if len(candidates) == 0:
        raise EmptyCandidatesError("best_match needs at least one candidate frame")

    ids = np.array([fid for fid, _ in candidates], dtype=np.int64)
    counts = np.zeros(len(candidates), dtype=np.int64)

    scored = [(i, ds) for i, (_, ds) in enumerate(candidates) if len(ds) >= 2]
    skipped = len(candidates) - len(scored)
    if skipped:
        logger.warning("skipped %d candidate frame(s) with fewer than 2 descriptors", skipped)

    if len(query) > 0 and scored:
        idx = [i for i, _ in scored]
        counts[idx] = _segment_counts(query, [ds for _, ds in scored], cfg)

    order = np.lexsort((ids, -counts))
    win = order[0]
    return int(ids[win]), int(counts[win])
