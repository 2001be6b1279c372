"""Keypoint descriptor matching with a ratio test plus a cosine gate.

A query keypoint matches a frame keypoint only when both hold:

* ratio test: squared distance to the nearest frame descriptor divided by
  squared distance to the second nearest is below ``tau1**2``
* cosine gate: cosine similarity with the nearest descriptor exceeds ``tau2``

Correspondence counts are independent per query keypoint (several query
keypoints may agree on one frame keypoint; no one-to-one constraint).

Squared distances come from a single float32 matrix product
(``|g|^2 + |f|^2 - 2 g.f``), which is what keeps full-database scans
tractable.
"""

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyCandidatesError, FrameTooSmallError

logger = logging.getLogger(__name__)

DESCRIPTOR_DIM = 128


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


def _candidate_rows(sets: Sequence[DescriptorSet]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows to score, their squared norms, and the first row of every set.

    Consecutive sets that are overlapping or touching windows of one block
    merge into one run of that block's rows. A single run is used in place;
    several (e.g. either side of an exclusion gap, or independent sets) are
    concatenated in candidate order.
    """
    runs = []  # [root, lo, hi] per run of block rows
    starts = []  # (run index, first block row) per set
    for s in sets:
        lo, hi = s._start, s._start + len(s)
        last = runs[-1] if runs else None
        if last is not None and last[0] is s._block and lo <= last[2] and hi >= last[1]:
            last[1] = min(last[1], lo)
            last[2] = max(last[2], hi)
        else:
            runs.append([s._block, lo, hi])
        starts.append((len(runs) - 1, lo))
    offsets = np.cumsum([0] + [hi - lo for _, lo, hi in runs])
    first = np.array([offsets[r] + lo - runs[r][1] for r, lo in starts], dtype=np.int64)
    if len(runs) == 1:
        root, lo, hi = runs[0]
        return root.array[lo:hi], root.norms[lo:hi], first
    rows = np.concatenate([root.array[lo:hi] for root, lo, hi in runs])
    norms = np.concatenate([root.norms[lo:hi] for root, lo, hi in runs])
    return rows, norms, first


def _cosine_gate(qq: np.ndarray, e1: np.ndarray, fn1: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Cosine gate on float64 |g|^2, nearest E value and nearest |f|^2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = ((fn1 - e1) / 2.0) / np.sqrt(qq * fn1)
    return (qq > 0.0) & (fn1 > 0.0) & (np.clip(cos, -1.0, 1.0) > cfg.tau2)


def _gate_bound(qq: np.ndarray, fmin: float, fmax: float, tau2: float) -> np.ndarray:
    """Per query row, a float32 value above every E entry that can pass the cosine gate.

    For tau2 > 0 the gate needs g.f > tau2 |g||f|, i.e. an entry
    e = |f|^2 - 2 g.f below |f|^2 - 2 tau2 |g||f|. Over |f|^2 in
    [fmin, fmax] that is convex in |f|, so it peaks at an end. The slack,
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


def _windows_holding(r: np.ndarray, c: np.ndarray, cols: np.ndarray, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, window) pairs where window [cols[s], cols[s] + k) holds an entry (r, c).

    An entry lies in the windows starting in (c - k, c]; over the sorted
    starts that is one range per entry, which repeat() expands.
    """
    order = np.argsort(cols, kind="stable")
    starts = cols[order]
    lo = np.searchsorted(starts, c - k, side="right")
    n_hits = np.searchsorted(starts, c, side="right") - lo
    back = np.repeat(np.cumsum(n_hits) - n_hits - lo, n_hits)
    hit = np.zeros((m, len(cols)), dtype=bool)
    hit[np.repeat(r, n_hits), order[np.arange(len(back)) - back]] = True
    return np.divmod(np.flatnonzero(hit), len(cols))


def _matches(query: DescriptorSet, sets: Sequence[DescriptorSet], cfg: MatchConfig) -> np.ndarray:
    """(m, p) index of the frame keypoint each query row matches, -1 for none.

    One float32 product fills E[i, c] = |f_c|^2 - 2 g_i.f_c over the
    candidate rows: that is d^2 minus the per-row constant |g_i|^2, which
    argmin does not need. The -2 is folded into the query, an exact
    scaling. Ties on the nearest neighbour go to the lowest index.
    """
    m, p = len(query), len(sets)
    rows, fnorms, first = _candidate_rows(sets)
    e = (query.array * np.float32(-2.0)) @ rows.T
    e += fnorms

    qq = query.norms.astype(np.float64)
    widths = np.array([len(s) for s in sets])
    match = np.empty((m, p), dtype=np.int64)
    for k in np.unique(widths):
        frames = np.flatnonzero(widths == k)
        cols = first[frames]
        n = len(frames)
        if n * k > e.shape[1] and cfg.tau2 > 0.0:
            # The frames overlap, sharing columns of E, so screen each
            # column once: a frame whose entries all lie above the cosine
            # gate's bound cannot match, whatever its nearest is.
            bound = _gate_bound(qq, float(fnorms.min()), float(fnorms.max()), cfg.tau2)
            # flatnonzero: 2-d np.nonzero is several times slower
            r, c = np.divmod(np.flatnonzero(e < bound[:, None]), e.shape[1])
            r, f = _windows_holding(r, c, cols, k, m)
            match[:, frames] = -1
            seg = np.lib.stride_tricks.sliding_window_view(e, k, axis=1)[r, cols[f]]
            match[r, frames[f]] = _gate_segments(seg, cols[f], qq[r], fnorms, cfg)
        elif n * k == e.shape[1] and np.array_equal(cols, np.arange(0, n * k, k)):
            # adjacent frames spanning all of E: one copy-free (m * n, k) view
            seg = e.reshape(m * n, k)
            match[:, frames] = _gate_segments(seg, np.tile(cols, m), np.repeat(qq, n), fnorms, cfg).reshape(m, n)
        else:
            for s, c in zip(frames, cols):
                match[:, s] = _gate_segments(e[:, c : c + k], np.full(m, c), qq, fnorms, cfg)
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
