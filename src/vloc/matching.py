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
stays bounded by the chunk size whatever the database size. Each product
is written frame rows by query rows, the orientation the BLAS runs
fastest. A bound on the cosine gate, made from the norms of the chunk's
own rows, screens each product once. A long chunk (at least 2048 rows, for
a query of at least 16 keypoints) first takes a bound product over 34
columns: the first 32 components of each descriptor, and the norms of the
rest by Cauchy-Schwarz (LEMP's bound; Teflioudi, Gemulla & Mykytiuk,
SIGMOD 2015). It proves, exactly, that a row can hold no entry below the
bound, so the chunk's own product covers only the rows from the first it
cannot rule out to the last, and a chunk with none, as most chunks of a
long scan are, is not multiplied at all. Then one pass
takes the least entry of each block of frame rows, and only the rows from
the first whose least entry is below the greatest keypoint bound to the
last such row are compared entry by entry. A chunk with no such block
costs that one pass and nothing more. Only
the (query keypoint, frame) pairs that hold a
screened entry can match. A screened entry that is the only one of its
keypoint in every frame holding it, as nearly all are on a drive, is
judged once for all those frames: it is each one's nearest, and the bound
stands in for the second nearest. Each remaining pair reads its frame's
whole row of distances and takes its nearest and second nearest there,
as a full pass would. Matches are counted per frame as each chunk is
scored.
"""

import itertools
import logging
import math
import threading
from dataclasses import dataclass
from typing import Iterator

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
median of 60 alternating scans, so 4 MiB stays. Re-timed once more for
the rows-by-query product and its block-min screen (60 interleaved scans
per size in one process, 3 queries of generated drives, OpenBLAS 0.3.31
SkylakeX kernel, 2 cores; each size's median against 4 MiB's): 2 MiB was
slower on every scan, unwindowed by 2% (10,000 frames, 64 keypoints) and
4% (1000 frames, 200 keypoints), 20 s windows by 16% and 10%; 8 MiB was
faster by 2-7%, but doubles the product buffer, about 4 MB of a drive
scan's 50-70 MB peak RSS, so 4 MiB stays.
"""

_BLAS_ROWS = 1024
"""Most frame rows per BLAS call of a chunk's product (_product).

Written as rows @ q.T, frame rows on the output's leading axis, a chunk's
product has the bits of q @ rows.T (a test pins where, by shape) and runs
faster for the queries a scan sees. In calls of at most 1024 rows it took
632 us against 750 us for 64 x 8192, 101 against 166 us for 64 x 1264,
level for 200 x 5242, but 1090-1355 against 943-995 us for 2000 x 524
(query rows x frame rows, medians of 200, OpenBLAS 0.3.31 SkylakeX
kernel, 2 cores). In this orientation OpenBLAS packs the whole left
operand, so what a call holds grows with its rows: one call per chunk
raised the benchmark's peak RSS by 5.8-7.6% (long_drive) and 7.1%
(city_db), calls of at most 2048 rows by 1.9-2.5% and 1.4-1.5%, and of at
most 1024 rows by 0.1-0.7% and 0.3-0.4% (bench/run.py --seconds 0, three
seeds each). A 10,000-frame unwindowed scan ran 16% faster at 1024 rows
and 18% at 2048, so 1024 keeps most of the gain within a 1% memory rise.
"""

_BLOCK_ENTRIES = 4096
"""Entries per block of rows whose least entry the screen's first pass takes (_below_rows).

A product has as few columns as the query has keypoints, so a least entry
per row is a short reduction each: 830 us on an 8192 x 64 product, where
blocks of 4096 entries took 58 us, within 20% of one min over the whole
product (39 us), and blocks of 512 entries 157 us; larger blocks gained
at most 10% more and widen the end blocks compared entry by entry.
"""

_MIN_SPAN = 128
"""Fewest frame rows of a product call over some of a chunk's rows (_admitted_rows, _chunk_matches).

A call of at least 128 frame rows and 16 query rows (the second of
_BOUND_FLOOR) gives each row the bits it has in a call over any other rows
around it (a test sweeps where, on OpenBLAS 0.3.31 with its SkylakeX
kernel); smaller calls take kernels whose bits depend on the rows beside
them. So a product over some rows of a chunk is those rows of the whole
chunk's product, bit for bit, as chunking already relies on.
"""

_BOUND_FLOOR = (2 * _BLAS_ROWS, 16)
"""(frame rows, query rows) of the least chunk that takes the bound product before its own (_admitted_rows).

A shorter chunk, such as every Monte-Carlo scan's (about 990 rows) and a
20 s window of a 64-keypoint drive (about 1,264), keeps its one product:
the bound would save least there. A query of fewer than 16 rows keeps it
too, as a product over some rows could not keep the chunk's bits.
"""

_HEAD = 32
"""Descriptor components the bound product multiplies; the rest enter through their norms."""

_SLACK = 2.0**-13
"""Relative slack of the bound product's norms and thresholds (_admitted_rows), ten times the float32 rounding it covers."""

_TINY = 2.0**-100
"""Absolute slack of the same, over the underflow of float32 products, flushed to zero or not."""

_SCALE = 2.0**100
"""Greatest squared norm, of a chunk's rows and of -2 q's, for which the bound product can overflow nothing."""


_scratch = threading.local()


def _scratch_f32(shape: tuple) -> np.ndarray:
    """A float32 array of shape, a view of this thread's product buffer, which later scans reuse.

    A chunk's product is written here rather than into a fresh array, so a
    process that scans many small databases (a Monte-Carlo run) does not
    page each scan's largest array in again whenever the allocator has
    handed the last one back to the OS: a fresh product per chunk made the
    benchmark's mc_eval first query 19-33% slower (2-core Xeon, OpenBLAS;
    1.10-1.20 ms against 1.40-1.60 ms at the median, 4 of 4 pairs). The
    buffer grows to the largest product seen, at most _E_BYTES per thread,
    the smaller one freed first (held while the next was made, it raised
    long_drive's peak RSS from 49.9 to 53.4 MB). A view is valid until the
    next chunk; each chunk's product is consumed before _matched yields.
    The size is math.prod of the shape: np.prod, which builds an array
    first, took most of this call's time.

    The bound product (_admitted_rows) writes its query side, its slices
    and their operand here too, before the chunk's product overwrites
    them, so it asks for no more than the product's n x m floats and holds
    no array of its own while this buffer is made or grown. Where this
    buffer lands in the heap sets a drive's peak RSS: with the query side
    (27 KB) made before it in an array of its own, the buffer no longer fit
    the space set-up had freed, the heap grew by its 4 MB, and long_drive's
    peak RSS read 53.7-54.5 MB against the parent's 50.8-51.1 MB ([heap]
    21.1 against 17.6 MB in its smaps). The layout is chaotic: the same
    code read level when started as python rather than python3, and asking
    this buffer for 3% more than n x m floats raised the peak on some seeds.
    """
    n = math.prod(shape)
    buf = getattr(_scratch, "product", None)
    if buf is None or len(buf) < n:
        _scratch.product = None  # free the smaller buffer before allocating
        buf = _scratch.product = np.empty(n, dtype=np.float32)
    return buf[:n].reshape(shape)


class DescriptorSet:
    """Immutable (k, 128) float32 block of keypoint descriptors for one image.

    A database frame's set is a zero-copy view of its rows of the
    database's block. Which rows those are is recorded only in the
    database's columns (Database, _Candidates), from which scans score the
    block in place; a set is only its array and the squared norms of its
    rows, computed once when first read.
    """

    __slots__ = ("_array", "_norms")

    def __init__(self, array):
        arr = np.array(array, dtype=np.float32, order="C", ndmin=2, copy=True)
        if arr.ndim != 2 or arr.shape[1] != DESCRIPTOR_DIM:
            raise ValueError(f"expected shape (k, {DESCRIPTOR_DIM}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("descriptor components must be finite")
        arr.setflags(write=False)
        self._array, self._norms = arr, None

    @classmethod
    def empty(cls) -> "DescriptorSet":
        return cls(np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DescriptorSet":
        # Trusted zero-copy constructor for callers that already hold a
        # read-only, validated float32 array (a landmark pool, a loaded
        # block or a frame's rows of one).
        assert arr.dtype == np.float32 and arr.ndim == 2 and arr.shape[1] == DESCRIPTOR_DIM
        assert arr.flags.c_contiguous and not arr.flags.writeable
        obj = cls.__new__(cls)
        obj._array, obj._norms = arr, None
        return obj

    @property
    def array(self) -> np.ndarray:
        """Read-only (k, 128) float32 view."""
        return self._array

    @property
    def norms(self) -> np.ndarray:
        """Read-only (k,) float32 squared row norms, computed once per set."""
        if self._norms is None:
            norms = np.einsum("ij,ij->i", self._array, self._array)
            norms.setflags(write=False)
            self._norms = norms
        return self._norms

    def __len__(self) -> int:
        return self._array.shape[0]

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

    Ids are uint64 and starts do not decrease. The constructor casts the
    row bounds, which may be a frame table's uint64 fields, to int64.
    best_match reads the columns only. __len__ and __iter__, which yields
    (int frame_id, DescriptorSet) pairs, each set a view of the frame's
    rows of the block made as it is read, are the contract of
    bench/tracer.py, which wraps best_match and counts the candidates and
    sums their rows through them.
    They can go once the tracer stops wrapping best_match.
    """

    __slots__ = ("ids", "block", "starts", "stops")

    def __init__(self, ids: np.ndarray, block: DescriptorSet, starts: np.ndarray, stops: np.ndarray):
        # int64 row bounds: uint64 ones would promote to float64 in the index arithmetic
        self.ids, self.block, self.starts, self.stops = ids, block, starts.astype(np.int64), stops.astype(np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, DescriptorSet]]:
        for fid, a, b in zip(self.ids.tolist(), self.starts.tolist(), self.stops.tolist()):
            yield fid, DescriptorSet._wrap(self.block.array[a:b])


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


def _verdict(qq: np.ndarray, e1: np.ndarray, e2: np.ndarray, fn1: np.ndarray, cfg: MatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """(cosine gate, gate and ratio test) per entry, on float64 |g|^2, E of the nearest and runner-up, and the nearest's |f|^2.

    Squared distances |g|^2 + E are clamped at 0. A floor under the
    runner-up's E may stand in for it: a match on the floor is one on E.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = ((fn1 - e1) / 2.0) / np.sqrt(qq * fn1)
        gate = (qq > 0.0) & (fn1 > 0.0) & (np.clip(cos, -1.0, 1.0) > cfg.tau2)
        d1, d2 = np.maximum(qq + e1, 0.0), np.maximum(qq + e2, 0.0)
        return gate, gate & (d2 > 0.0) & (d1 / d2 < cfg.tau1 * cfg.tau1)


def _gate_bound(qq: np.ndarray, fmin: float, fmax: float, tau2: float) -> np.ndarray:
    """Per query row, a float32 value above every E entry that can pass the cosine gate.

    The gate needs g.f > tau2 |g||f|, i.e. an entry e = |f|^2 - 2 g.f
    below |f|^2 - 2 tau2 |g||f|. Over |f|^2 in [fmin, fmax] that is convex
    in |f| whatever the sign of tau2, so it peaks at an end; for tau2 <= 0
    it lies above nearly every entry and screens out little. The slack,
    relative 1e-9, covers the float64 rounding of the gate and of this
    bound many times over; a non-finite bound screens nothing out. A row
    of zero norm never passes the gate (|g| > 0), so its bound is -inf and
    it screens nothing in: with a bound above every entry, it would hold
    an entry in every frame and pair with each.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        top = np.sqrt(qq * fmax)
        ends = np.maximum(fmin - 2.0 * tau2 * np.sqrt(qq * fmin), fmax - 2.0 * tau2 * top)
        bound = ends + 1e-9 * (np.abs(ends) + fmax + 2.0 * top)
        bound[np.isnan(bound)] = np.inf
        bound[~(qq > 0.0)] = -np.inf
    # rounded up to float32, so E is compared in its own precision
    return _round_up(bound)


def _round_up(x: np.ndarray) -> np.ndarray:
    """float64 x rounded up to float32: the least float32 at or above each entry, inf above the greatest."""
    with np.errstate(over="ignore"):
        narrow = x.astype(np.float32)
    return np.where(narrow < x, np.nextafter(narrow, np.float32(np.inf)), narrow)


def _screen_t(bound: np.ndarray, fmin: np.float32) -> np.ndarray:
    """Per query row, _screen's float32 t: an entry of p at least t has E at least the bound in every row of norm at least fmin."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.nextafter(bound - fmin, np.float32(np.inf))


def _screen(p: np.ndarray, fnorms: np.ndarray, bound: np.ndarray, span: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat indices and values of the entries of E = g + |f|^2 below bound, for g = p.T.

    p is the chunk's product as _matched writes it, one row per frame row
    and one column per query row. Only its rows span = (a, b), all by
    default, are read: the bound product has shown every other row to be
    at least t (_admitted_rows), so they need not have been written. NaN
    entries are kept too, so a pair's nearest is NaN wherever argmin's
    would be. Over the span, E is not formed but p read:
    fl(g + |f|^2) >= fl(t + fmin) for |f|^2 >= fmin, so an entry with
    g >= t, for t one float32 step above fl(bound - fmin), is at least the
    bound. E is formed at the entries left, with the float32 addition a
    full pass would use, and they are held to the exact test.

    A block of rows whose least entry is at least the greatest t holds no
    entry below its query row's t, so one pass of block minima (_below_rows)
    finds the blocks that can hold one, the first and last of them are
    narrowed to their first and last such row, and the per-entry compare
    runs only on the rows between: on a long scan a query's matches sit in
    a few hundred rows of a chunk, and most chunks hold none and end after
    the min pass. A NaN in p or t fails the min test, so a NaN's row is
    always compared and the NaN kept (a NaN t compares every row). The
    span's indices, in p's order, are turned into g's row-major ones in
    place and sorted, and E is gathered in that order: sorting the indices
    alone holds no more arrays of the entries at once than the screen of
    a query-major product did, which a loose gate (tau2 <= 0), keeping
    nearly every entry, makes the scan's peak.
    """
    n, m = p.shape
    lo, hi = span or (0, n)
    t = _screen_t(bound, fnorms.min())
    below = _below_rows(p[lo:hi], t.max())
    if below is None:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float32)
    a, b = lo + below[0], lo + below[1]
    out = np.greater_equal(p[a:b], t)
    # (c, i) of the entries over the span, in p's order, made g's
    # row-major index i * n + c + a in place and sorted into g's order
    c, idx = np.divmod(np.flatnonzero(np.logical_not(out, out=out)), m)
    del out
    idx *= n
    idx += c
    del c
    idx += a
    idx.sort()
    row, col = np.divmod(idx, n)
    del idx
    e = p[col, row]
    e += fnorms[col]
    keep = ~(e >= bound[row])
    row *= n
    row += col
    del col
    return row[keep], e[keep]


def _below_rows(p: np.ndarray, top: np.float32) -> tuple[int, int] | None:
    """The span a:b of p's rows from the first holding an entry not at least top to the last, None if no row holds one.

    A row holds one entry per query row, so its minimum is a short
    reduction, over ten times slower per entry than minima of blocks of
    rows (see _BLOCK_ENTRIES): blocks are tested first, and only the first
    and last blocks failing the test are compared entry by entry, to find
    their first and last such row.
    """
    n, m = p.shape
    rows = max(1, _BLOCK_ENTRIES // m)
    whole = n // rows
    mins = np.empty(-(-n // rows), dtype=np.float32)
    p[: whole * rows].reshape(whole, rows * m).min(axis=1, out=mins[:whole])
    if whole < len(mins):
        mins[whole] = p[whole * rows :].min()
    blocks = np.flatnonzero(~(mins >= top))
    if len(blocks) == 0:
        return None
    first, last = int(blocks[0]) * rows, int(blocks[-1]) * rows
    head = np.flatnonzero(~(p[first : first + rows] >= top))
    tail = np.flatnonzero(~(p[last : last + rows] >= top))
    return first + int(head[0]) // m, last + int(tail[-1]) // m + 1


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
    most _E_BYTES. Per chunk one float32 product p = f.(-2 q) over the
    rows of its span, written frame rows by query rows (_product), gives
    g = p.T and E[i, c] = g[i, c] + |f_c|^2, which is d^2 minus the per-row
    constant |g_i|^2 that the nearest does not depend on (the -2 is folded
    into the query, an exact scaling).
    A chunk of frames that hold no rows matches nothing and is not
    yielded, and an empty query matches nothing in any chunk: none is
    yielded.

    The cosine gate's bound is made per chunk for the range of its own
    rows' norms, the tightest that holds for every one of them, so nothing
    is carried from one chunk to the next. A chunk of at least
    _BOUND_FLOOR, whose norms and the query's are below _SCALE, takes the
    bound product first (_admitted_rows) and multiplies only the rows it
    admits, none if it admits none.
    """
    m = len(query)
    if not m:
        return
    q = query.array * np.float32(-2.0)
    qq = query.norms.astype(np.float64)
    max_cols = max(1, _E_BYTES // (4 * m))
    for lo, rows, fnorms, first, widths in _candidate_rows(block, starts, stops, max_cols):
        if len(rows):
            fmin, fmax = fnorms.min(), fnorms.max()
            bound = _gate_bound(qq, fmin, fmax, cfg.tau2)
            span = (0, len(rows))
            if len(rows) >= _BOUND_FLOOR[0] and m >= _BOUND_FLOOR[1] and fmax < _SCALE and 4.0 * qq.max() < _SCALE:
                span = _admitted_rows(rows, fnorms, q, query.norms, _slack_t(_screen_t(bound, fmin), float(fmax), qq))
            # a call per chunk, so one chunk's arrays are freed before the next product
            yield lo, first, widths, *_chunk_matches(rows, q, span, qq, fnorms, first, widths, bound, cfg)


def _tail_norms(norms: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Per row, a float32 value at least the norm of its components after the _HEAD of head, from its float32 squared norm.

    y = norms (1 + _SLACK) - |head|^2 + _TINY, in float32: the squared
    norms are sums of at most 128 float32 products, within a relative
    128 u (u = 2^-24) of the true ones, and within 2^-119 more where
    products underflow, so y stays above the tail's squared norm by most of
    _SLACK |f|^2 + _TINY, and its float32 square root, within u of the
    true one, above the tail's norm. That slack sits inside the root: where
    the tail is near zero, the rounding of the difference can need about
    sqrt(256 u) |f|, far more than a slack outside it would give.
    """
    y = norms * np.float32(1.0 + _SLACK)
    y -= np.einsum("ij,ij->i", head, head)
    y += np.float32(_TINY)
    return np.sqrt(y, out=y)


def _slack_t(t: np.ndarray, fmax: float, qq: np.ndarray) -> np.ndarray:
    """Per query row, the float32 s of the bound product: _screen's t plus a slack over the rounding of both products.

    A computed entry of p differs from f.q by at most 128 u |f||q| and
    2^-119 of underflow, and one of the bound product from its true value
    by at most 34 u of the sum of its terms' magnitudes, about
    2 |f||q| + |s|; |f||q| is at most sqrt(fmax |q|^2), with _TINY added to
    each factor for products that underflow. s = t + _SLACK (sqrt(...) +
    |t|) + _TINY covers both many times over, rounded up to float32. A
    t of inf (a bound screening nothing out) gives an s of inf.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _round_up(t + (_SLACK * (np.sqrt((fmax + _TINY) * (4.0 * qq + _TINY)) + np.abs(t)) + _TINY))


def _admitted_rows(rows: np.ndarray, fnorms: np.ndarray, q: np.ndarray, qnorms: np.ndarray, s: np.ndarray) -> tuple[int, int] | None:
    """The rows a:b of the chunk whose product with q = -2 query can hold an entry below _screen's t, at least _MIN_SPAN of them; None if no row can.

    The bound product B = [f[:, :_HEAD] | phi | 1] . [q[:, :_HEAD] | -psi | -s]^T
    is taken per slice of rows, phi and psi bounding the norms of f's and
    q's other components (_tail_norms; psi from the query's squared norms
    qnorms times 4, exactly those of q). By Cauchy-Schwarz
    f.q >= f_head.q_head - phi psi, so an entry of B at or above 0 shows
    that p's entry, rounding and all (_slack_t), is at least t: a row of B
    with no entry below 0 holds no entry _screen keeps. A NaN in B admits
    its row. The rows from the first admitted to the last are the span,
    widened to _MIN_SPAN rows so its product keeps the chunk's bits.

    The query side, and each slice's operand and product, are written into
    the chunk's product buffer, which the chunk's own product overwrites
    after, so the bound keeps no array and uses no memory beyond the n x m
    floats that product takes (see _scratch_f32); the query side is made
    again for each chunk. The slices are near-equal, of at most _BLAS_ROWS
    rows and as many as the buffer holds beside the query side and their
    operand. The first admitted row is sought from the front and the last
    from the back, so the slices between them, inside the span, take no
    bound product.
    """
    n, m = len(rows), len(q)
    cols = _HEAD + 2
    step = max(1, min(_BLAS_ROWS, (n - cols) * m // (m + cols)))
    buf = _scratch_f32((max(n * m, m * cols + step * (m + cols)),))
    side, buf = buf[: m * cols].reshape(m, cols), buf[m * cols :]
    side[:, :_HEAD] = q[:, :_HEAD]
    side[:, _HEAD] = -_tail_norms(qnorms * np.float32(4.0), q[:, :_HEAD])
    side[:, _HEAD + 1] = -s
    calls = -(-n // step)
    edges = [n * i // calls for i in range(calls + 1)]

    def below(i):
        lo, hi = edges[i], edges[i + 1]
        lhs = buf[: (hi - lo) * cols].reshape(hi - lo, cols)
        lhs[:, :_HEAD] = rows[lo:hi, :_HEAD]
        lhs[:, _HEAD] = _tail_norms(fnorms[lo:hi], rows[lo:hi, :_HEAD])
        lhs[:, _HEAD + 1] = 1.0
        out = buf[lhs.size : lhs.size + (hi - lo) * m].reshape(hi - lo, m)
        span = _below_rows(np.matmul(lhs, side.T, out=out), np.float32(0.0))
        return None if span is None else (lo + span[0], lo + span[1])

    front, back, span = 0, calls - 1, None
    while span is None and front <= back:
        span, front = below(front), front + 1
    while span is not None and front <= back:
        last, back = below(back), back - 1
        if last is not None:
            span = span[0], last[1]
            break
    if span is None:
        return None
    a, b = span
    b = min(n, max(b, a + _MIN_SPAN))
    return max(0, min(a, b - _MIN_SPAN)), b


def _product(rows: np.ndarray, q: np.ndarray, a: int = 0, b: int | None = None) -> np.ndarray:
    """rows @ q.T into this thread's scratch buffer, rows a:b of it (all by default), one BLAS call per near-equal slice of at most _BLAS_ROWS rows."""
    n = len(rows)
    p = _scratch_f32((n, len(q)))
    b = n if b is None else b
    calls = -(-(b - a) // _BLAS_ROWS)
    for x, y in itertools.pairwise(a + (b - a) * i // calls for i in range(calls + 1)):
        np.matmul(rows[x:y], q.T, out=p[x:y])
    return p


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


def _chunk_matches(rows: np.ndarray, q: np.ndarray, span: tuple[int, int] | None, qq: np.ndarray, fnorms: np.ndarray, first: np.ndarray, widths: np.ndarray, bound: np.ndarray, cfg: MatchConfig) -> tuple[np.ndarray, ...]:
    """The matches of one chunk of rows against q = -2 query: (r, f, j, hr, hc) as _matched yields them.

    Only the rows a:b of span are multiplied first (_product), the rows
    that can hold an entry below the bound (_admitted_rows; all of them
    for a chunk that took no bound product), and a span of None, no row,
    holds no match and is not multiplied.
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
    nearest and runner-up there (_top_two), as a full pass would, so the
    rows outside the span are multiplied then, each call widened into the
    span to _MIN_SPAN rows, whose bits are those of the span's product.

    A chunk the screen keeps nothing of, as its block-min pass finds for
    most chunks of a long scan, holds no match and returns at once. The
    pairs read g as the transposed view of p, one query row per row.
    """
    if span is None:
        flat = np.empty(0, dtype=np.intp)
        return flat, flat, flat, flat, flat
    p = _product(rows, q, *span)
    flat, e = _screen(p, fnorms, bound, span)
    g = p.T
    hr = hc = flat[:0]
    if 0 < len(flat) <= g.shape[0] * len(first):
        flat, hr, hc = _settle_lone(flat, e, qq, fnorms, first, widths, bound, cfg)
    del e  # the pairs read their values from g; freed before they gather
    if len(flat) == 0:
        return flat, flat, flat, hr, hc
    a, b = span
    if a > 0:
        _product(rows, q, 0, max(a, _MIN_SPAN))
    if b < len(rows):
        _product(rows, q, min(b, len(rows) - _MIN_SPAN), len(rows))
    r, f = _held_pairs(flat, g.shape, first, widths)
    j, e1, e2 = _top_two(g, fnorms, r, first[f], widths[f])
    _, passed = _verdict(qq[r], e1, e2, fnorms[first[f] + j].astype(np.float64), cfg)
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
    ok, hit = _verdict(qq[r], e[at].astype(np.float64), bound[r].astype(np.float64), fnorms[c].astype(np.float64), cfg)
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
    starts, stops = candidates.starts, candidates.stops
    counts = _counts(query, candidates.block, starts, stops, cfg)
    narrow = stops - starts < 2
    if narrow.any():
        logger.warning("skipped %d candidate frame(s) with fewer than 2 descriptors", narrow.sum())
        counts[narrow] = 0

    top = np.flatnonzero(counts == counts.max())
    return int(candidates.ids[top].min()), int(counts[top[0]])
