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
stays bounded by the chunk size whatever the database size. A bound on the
cosine gate screens each product once: one pass takes each column's least
entry, and only the span from the first column whose least entry is below
the greatest row bound to the last such column is compared row by row. A
chunk with no such column, as most chunks of a long scan are, costs that
one pass and nothing more. Only the (query keypoint, frame) pairs that hold a
screened entry can match. A screened entry that is the only one of its
keypoint in every frame holding it, as nearly all are on a drive, is
judged once for all those frames: it is each one's nearest, and the bound
stands in for the second nearest. Each remaining pair reads its frame's
whole row of distances and takes its nearest and second nearest there,
as a full pass would. Matches are counted per frame as each chunk is
scored.
"""

import logging
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import EmptyCandidatesError, FrameTooSmallError

logger = logging.getLogger(__name__)

DESCRIPTOR_DIM = 128

_E_BYTES = 4 * 2**20
"""Most bytes of the float32 product of a query and a chunk of candidate rows, at once.

Chosen by timing scans of loaded 1000-frame (200 keypoints) and
10,000-frame (64 keypoints) drives, windowed and not, on a 2-core Xeon
with OpenBLAS: 2 MiB chunks scanned 10-25% slower than 4-8 MiB ones, and
4, 6 and 8 MiB were level within the run-to-run noise, so the smallest of
those keeps peak memory lowest. Re-timed once chunks that no keypoint can
match had become cheap (one min pass): 2 MiB was still no faster, with
windowed scans 4% (1000 frames) and 12% (10,000 frames) slower at the
median of 60 alternating scans, so 4 MiB stays. Both timings predate the
column-min screen, which compares only the span of a chunk's columns that
can hold an entry below the bound; the size was not re-timed for it.
"""


_scratch = threading.local()


def _scratch_f32(shape: tuple) -> np.ndarray:
    """A float32 array of shape, a view of this thread's product buffer, which later scans reuse.

    A chunk's product is written here rather than into a fresh array, so a
    process that scans many small databases (a Monte-Carlo run) does not
    page each scan's largest array in again whenever the allocator has
    handed the last one back to the OS. The buffer grows to the largest
    product seen, at most _E_BYTES per thread. A view is valid until the
    next chunk; each chunk's product is consumed before _matched yields.
    The size is math.prod of the shape: np.prod, which builds an array
    first, took most of this call's time.
    """
    n = math.prod(shape)
    buf = getattr(_scratch, "product", None)
    if buf is None or len(buf) < n:
        _scratch.product = None  # free the smaller buffer before allocating
        buf = _scratch.product = np.empty(n, dtype=np.float32)
    return buf[:n].reshape(shape)


class DescriptorSet:
    """Immutable (k, 128) float32 block of keypoint descriptors for one image.

    A set can also be a zero-copy window of rows of a larger set, as the
    frames of a synthetic drive are of its landmark pool and the frames of
    a loaded database are of its descriptor block. Scans use that: windows
    of one block are scored straight from spans of the block's rows, in
    place, so rows that overlapping windows share are scored once (and
    rows between windows, such as an exclusion gap, along with them).
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


class _Candidates:
    """Frames to score as columns: frame i has id ids[i] and rows starts[i]:stops[i] of block.

    Ids are uint64 and starts do not decrease. best_match reads the
    columns only. __len__ and __iter__, which yields (int frame_id,
    DescriptorSet) pairs, each set a window of the block made as it is
    read, are the contract of bench/tracer.py, which wraps best_match and
    counts the candidates and sums their rows through them. They can go
    once the tracer stops wrapping best_match.
    """

    __slots__ = ("ids", "block", "starts", "stops")

    def __init__(self, ids: np.ndarray, block: DescriptorSet, starts: np.ndarray, stops: np.ndarray):
        self.ids, self.block, self.starts, self.stops = ids, block, starts, stops

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, DescriptorSet]]:
        for fid, a, b in zip(self.ids.tolist(), self.starts.tolist(), self.stops.tolist()):
            yield fid, self.block._window(a, b)


def _candidate_rows(block: DescriptorSet, starts: np.ndarray, stops: np.ndarray, max_cols: int) -> Iterator[tuple]:
    """Chunks of whole frames, each one span of the block's rows, scored by one product over at most max_cols rows.

    Frame i is rows starts[i]:stops[i] of block, and starts do not
    decrease. Yields (lo, rows, norms, first, widths) per chunk: its frames
    start at frame lo, rows and norms are the block's rows from the first
    frame's start to the greatest of the frames' stops, in place, and their
    squared norms, first holds each frame's first row within rows (never
    decreasing, as the starts do not) and widths its row count.

    Overlapping or touching frames share their rows, and rows that lie
    between frames (an exclusion gap) are scored with the rest and belong
    to no frame. They count against max_cols all the same: a chunk is the
    longest run of frames whose span stays within max_cols rows, so a frame
    wider than max_cols is a chunk of its own. Only the frames starting
    within max_cols rows of the first can end one, so one search finds it.
    """
    n, lo = len(starts), 0
    while lo < n:
        a = int(starts[lo])
        top = np.maximum.accumulate(stops[lo : int(starts.searchsorted(a + max_cols, "right"))])
        k = max(1, int(top.searchsorted(a + max_cols, "right")))
        b = int(top[k - 1])
        firsts = starts[lo : lo + k]
        yield lo, block.array[a:b], block.norms[a:b], firsts - a, stops[lo : lo + k] - firsts
        lo += k


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
        top = np.sqrt(qq * fmax)
        ends = np.maximum(fmin - 2.0 * tau2 * np.sqrt(qq * fmin), fmax - 2.0 * tau2 * top)
        bound = ends + 1e-9 * (np.abs(ends) + fmax + 2.0 * top)
        bound[np.isnan(bound)] = np.inf
        # rounded up to float32, so E is compared in its own precision
        narrow = bound.astype(np.float32)
    return np.where(narrow < bound, np.nextafter(narrow, np.float32(np.inf)), narrow)


def _screen(g: np.ndarray, fnorms: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat indices and values of the entries of E = g + |f|^2 below bound.

    NaN entries are kept too, so a pair's nearest is NaN wherever argmin's
    would be. Only g is read in full: fl(g + |f|^2) >= fl(t + fmin) for
    |f|^2 >= fmin, so an entry with g >= t, for t one float32 step above
    fl(bound - fmin), is at least the bound. E is formed at the entries
    left, with the float32 addition a full pass would use, and they are
    held to the exact test.

    A column whose least entry is at least the greatest t holds no entry
    below its row's t, so one column-min pass finds the columns that can
    hold one, and the per-row compare runs only on the span from the
    first of them to the last: on a long scan a query's matches sit in a
    few hundred columns of a chunk, and most chunks hold none and end
    after the min pass. A NaN in g or t fails the column test, so a NaN's
    column is always compared and the NaN kept (a NaN t compares every
    column). The span's row-major indices are mapped back to g's in place.
    """
    n = g.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.nextafter(bound - fnorms.min(), np.float32(np.inf))
    cols = np.flatnonzero(~(g.min(axis=0) >= t.max()))
    if len(cols) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float32)
    a, b = int(cols[0]), int(cols[-1]) + 1
    w = b - a
    out = np.greater_equal(g[:, a:b], t[:, None])
    flat = np.flatnonzero(np.logical_not(out, out=out))
    del out
    flat += flat // w * (n - w) + a
    e = g.ravel()[flat]
    e += fnorms[flat % n]
    keep = ~(e >= bound[flat // n])
    return flat[keep], e[keep]


def _matched(query: DescriptorSet, block: DescriptorSet, starts: np.ndarray, stops: np.ndarray, cfg: MatchConfig) -> Iterator[tuple]:
    """Per chunk of frames, (lo, first, widths, r, f, j, hr, hc): the chunk's matches.

    Its frames are lo:lo + len(first), frame i covering columns
    first[i]:first[i] + widths[i] of the chunk; a column between frames
    (a gap's row) is covered by none. Query row r[i] matches keypoint j[i]
    of its frame f[i], and query row hr[i] matches column hc[i] in every
    frame covering that column, which for a gap's column is none (a
    settled lone entry, see _chunk_matches).

    Frame i is rows starts[i]:stops[i] of block, starts not decreasing.
    The frames are scored in chunks of whole frames, each one span of the
    block's rows (_candidate_rows), so the product of a chunk holds at
    most _E_BYTES. Per chunk one float32 product g = -2 q.f over the rows
    of its span gives E[i, c] = g[i, c] + |f_c|^2,
    which is d^2 minus the per-row constant |g_i|^2 that the nearest does
    not depend on (the -2 is folded into the query, an exact scaling).

    The cosine gate's bound holds for every norm in the range it is made
    for, so it is made for the range of the rows scored so far and made
    again only when a chunk widens that range: a few times per scan, not
    once per chunk.
    """
    m = len(query)
    q = query.array * np.float32(-2.0)
    qq = query.norms.astype(np.float64)
    # neither the product nor the rows it reads exceed _E_BYTES
    max_cols = max(1, _E_BYTES // (4 * max(m, DESCRIPTOR_DIM)))
    fmin, fmax = np.inf, -np.inf
    for lo, rows, fnorms, first, widths in _candidate_rows(block, starts, stops, max_cols):
        low, high = float(fnorms.min()), float(fnorms.max())
        if low < fmin or high > fmax:
            fmin, fmax = min(fmin, low), max(fmax, high)
            bound = _gate_bound(qq, fmin, fmax, cfg.tau2)
        # a call per chunk, so one chunk's arrays are freed before the next product
        g = np.matmul(q, rows.T, out=_scratch_f32((m, len(rows))))
        yield lo, first, widths, *_chunk_matches(g, qq, fnorms, first, widths, bound, cfg)


def _counts(query: DescriptorSet, block: DescriptorSet, starts: np.ndarray, stops: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """Correspondence count of the query against frames starts[i]:stops[i] of block, counted per chunk.

    A settled hit counts in every frame whose columns hold it, so a hit in
    a column between frames (a gap's row) counts in none.
    """
    counts = np.zeros(len(starts), dtype=np.int64)
    for lo, first, widths, _, f, _, _, hc in _matched(query, block, starts, stops, cfg):
        chunk = counts[lo : lo + len(first)]
        if len(hc):
            # the settled hits each counts once in every frame covering its column
            hc = np.sort(hc)
            chunk += hc.searchsorted(first + widths) - hc.searchsorted(first)
        if len(f):
            chunk += np.bincount(f, minlength=len(first))
    return counts


def _chunk_matches(g: np.ndarray, qq: np.ndarray, fnorms: np.ndarray, first: np.ndarray, widths: np.ndarray, bound: np.ndarray, cfg: MatchConfig) -> tuple[np.ndarray, ...]:
    """The matches of one chunk, from its product g: (r, f, j, hr, hc) as _matched yields them.

    bound is _gate_bound's for a norm range holding every one of fnorms.
    Frames may overlap and share columns of E, so each entry is screened
    once, against that bound (_screen). The (query row, frame) pairs that
    hold a screened entry are the only ones that can match: an entry that
    can pass the gate is below the bound.

    Most screened entries are lone: no other screened entry of their row
    lies in any frame holding them. In every pair holding one, that entry
    is the nearest and the bound a floor under the runner-up, so one
    verdict serves all of them. _settle_lone gives it once per entry,
    returning the hits as (row, column) and the entries it leaves, none of
    which shares a pair with an entry it settled. Each pair holding an
    entry left (_held_pairs) reads its frame's whole row of E and takes its
    nearest and runner-up there (_top_two), as a full pass would.

    A chunk the screen keeps nothing of, as its column-min pass finds for
    most chunks of a long scan, holds no match and returns at once.
    """
    flat, e = _screen(g, fnorms, bound)
    hr = hc = flat[:0]
    if 0 < len(flat) <= g.shape[0] * len(first):
        flat, hr, hc = _settle_lone(flat, e, qq, fnorms, first, widths, bound, cfg)
    del e  # the pairs read their values from g; freed before they gather
    if len(flat) == 0:
        return flat, flat, flat, hr, hc
    r, f = _held_pairs(flat, g.shape, first, widths)
    j, e1, e2 = _top_two(g, fnorms, r, first[f], widths[f])
    qr = qq[r]
    ok = _cosine_gate(qr, e1, fnorms[first[f] + j].astype(np.float64), cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        passed = ok & _ratio_test(np.maximum(qr + e1, 0.0), np.maximum(qr + e2, 0.0), cfg)
    return r[passed], f[passed], j[passed], hr, hc


def _settle_lone(flat: np.ndarray, e: np.ndarray, qq: np.ndarray, fnorms: np.ndarray, first: np.ndarray, widths: np.ndarray, bound: np.ndarray, cfg: MatchConfig) -> tuple[np.ndarray, ...]:
    """Settle each lone screened entry once: flat of the entries left, and row and column of each hit.

    flat holds the sorted row-major indices of the screened entries of E
    and e their values; frame f covers columns first[f]:first[f] + widths[f]
    and first never decreases (as _candidate_rows gives it). The frames
    holding a column span the columns from the first of them, the first
    frame whose running maximum end passes it, to the running maximum end
    of the frames starting at or before it. A column that lies in no frame
    (a gap's row) has that span empty and lies in no other entry's span:
    its entry is lone, leaves every other entry's verdict as it was, and a
    hit there is a hit in no frame.
    An entry is lone when its row's neighbours in flat lie outside that
    span. Entries left out of the screen are at least the bound, so a lone
    entry is the nearest of every pair holding it and the bound stands in
    for the runner-up of each. A lone entry failing the cosine gate is
    dropped; one passing it and the bound's ratio test is a hit in every
    frame holding it; the rest, and every entry that is not lone, are left.

    Its arrays, several per entry, are why _chunk_matches calls it only
    when the entries are no more than the m x p pairs: with tau2 <= 0 the
    screen keeps nearly every entry, few are lone, and those arrays would
    outgrow the product.
    """
    row, col = np.divmod(flat, len(fnorms))
    reach = np.maximum.accumulate(first + widths)
    lo = first[reach.searchsorted(col, "right")]
    hi = reach[first.searchsorted(col, "right") - 1]
    lone = np.ones(len(flat), dtype=bool)
    same = row[1:] == row[:-1]
    lone[1:] &= ~same | (col[:-1] < lo[1:])
    lone[:-1] &= ~same | (col[1:] >= hi[:-1])
    at = np.flatnonzero(lone)
    r, c = row[at], col[at]
    e1, qr = e[at].astype(np.float64), qq[r]
    ok = _cosine_gate(qr, e1, fnorms[c].astype(np.float64), cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = ok & _ratio_test(np.maximum(qr + e1, 0.0), np.maximum(qr + bound[r].astype(np.float64), 0.0), cfg)
    lone[at[ok & ~hit]] = False
    return flat[~lone], r[hit], c[hit]


def _held_pairs(flat: np.ndarray, shape: tuple, first: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row r and frame f of every (row, frame) pair holding one of the sorted row-major flat indices of an (m, n) E.

    Frame f covers columns first[f]:first[f] + widths[f]. The rows holding
    an entry are found from the row edges of flat, and each is paired with
    every frame; a pair is kept where its frame's columns of the row hold
    an entry. A column that lies in no frame (a gap's row) is in no pair.
    """
    m, n = shape
    p = len(first)
    rows = np.flatnonzero(np.diff(flat.searchsorted(np.arange(0, m * n + 1, n))))
    r, f = np.repeat(rows, p), np.tile(np.arange(p), len(rows))
    at = r * n + first[f]
    held = np.flatnonzero(flat.searchsorted(at + widths[f]) > flat.searchsorted(at))
    return r[held], f[held]


def _top_two(g: np.ndarray, fnorms: np.ndarray, r: np.ndarray, first: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per pair, from row r of E over columns first:first + widths: the nearest's column j within them, its value and the least of the others.

    E is formed with the float32 addition g + |f|^2 a full pass would use,
    and argmin picks the nearest, so ties go to the lowest column and a
    NaN is nearest. The pairs are gathered by width, in slices of at most
    a quarter of g's entries, so no gather outgrows the product.
    """
    j = np.empty(len(r), dtype=np.intp)
    e1, e2 = np.empty(len(r)), np.empty(len(r))
    for k in np.unique(widths):
        rows = np.lib.stride_tricks.sliding_window_view(g, k, axis=1)
        norms = np.lib.stride_tricks.sliding_window_view(fnorms, k)
        pick = np.flatnonzero(widths == k)
        step = max(1, g.size // 4 // k)
        for at in (pick[s : s + step] for s in range(0, len(pick), step)):
            seg = rows[r[at], first[at]]
            seg += norms[first[at]]
            near, i = seg.argmin(axis=1), np.arange(len(at))
            j[at], e1[at] = near, seg[i, near]
            seg[i, near] = np.inf
            e2[at] = seg.min(axis=1)
    return j, e1, e2


def _ratio_test(d1: np.ndarray, d2: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """d1 / d2 < tau1^2 on float64 squared distances to the nearest and runner-up."""
    return (d2 > 0.0) & (d1 / d2 < cfg.tau1 * cfg.tau1)


def count_correspondences(query: DescriptorSet, frame: DescriptorSet, cfg: MatchConfig) -> int:
    """Number of query keypoints that match somewhere in the frame.

    Raises FrameTooSmallError for a frame of fewer than two descriptors
    (the ratio test needs a second nearest), unless the query is empty.
    """
    if len(query) == 0:
        return 0
    if len(frame) < 2:
        raise FrameTooSmallError(f"frame has {len(frame)} descriptors, ratio test needs at least 2")
    return int(_counts(query, frame, np.array([0]), np.array([len(frame)]), cfg)[0])


def best_match(query: DescriptorSet, candidates: _Candidates, cfg: MatchConfig) -> tuple[int, int]:
    """Pick the candidate frame with the most correspondences.

    Parameters
    ----------
    query : DescriptorSet
        Query image descriptors.
    candidates : _Candidates
        Frames to score, as a scan's columns. Frames with fewer than two
        descriptors are scored zero (the ratio test is undefined for them)
        and logged.
    cfg : MatchConfig

    Returns
    -------
    (frame_id, count)
        Ties on the count resolve to the lowest frame_id, independent of
        candidate order. The count may be zero.
    """
    if len(candidates) == 0:
        raise EmptyCandidatesError("best_match needs at least one candidate frame")
    block, starts, stops = candidates.block, candidates.starts, candidates.stops
    scored = stops - starts >= 2
    if scored.all():
        counts = _counts(query, block, starts, stops, cfg) if len(query) else np.zeros(len(scored), dtype=np.int64)
    else:
        logger.warning("skipped %d candidate frame(s) with fewer than 2 descriptors", len(scored) - scored.sum())
        counts = np.zeros(len(scored), dtype=np.int64)
        if len(query) > 0 and scored.any():
            counts[scored] = _counts(query, block, starts[scored], stops[scored], cfg)

    top = np.flatnonzero(counts == counts.max())
    return int(candidates.ids[top].min()), int(counts[top[0]])
