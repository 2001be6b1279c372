from contextlib import nullcontext
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from candidates import as_candidates, chunk_bytes, columns, packed
from vloc import matching
from vloc.errors import EmptyCandidatesError, FrameTooSmallError
from vloc.matching import (
    DESCRIPTOR_DIM,
    DescriptorSet,
    MatchConfig,
    _Candidates,
    _candidate_rows,
    _counts,
    _gate_bound,
    _held_pairs,
    _matched,
    _screen,
    _verdict,
    best_match,
    count_correspondences,
)


def vec(*head):
    """128-dim vector with the given leading components, zero elsewhere."""
    v = np.zeros(DESCRIPTOR_DIM)
    v[: len(head)] = head
    return v


def unit_rows(rng, n):
    a = rng.standard_normal((n, DESCRIPTOR_DIM))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


# --- float64 naive reference, kept independent of the production routines ---


def as_descriptor(values) -> np.ndarray:
    """Validate a single descriptor: exactly 128 finite components."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.shape[0] != DESCRIPTOR_DIM:
        raise ValueError(f"descriptor must have {DESCRIPTOR_DIM} components, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("descriptor components must be finite")
    return arr


def sq_dist(g, f) -> float:
    """Squared Euclidean distance between two descriptors."""
    diff = as_descriptor(g) - as_descriptor(f)
    return float(np.dot(diff, diff))


def cosine_sim(g, f) -> float:
    """Cosine similarity of two descriptors, clamped to [-1, 1].

    Raises ZeroDivisionError when either vector has zero norm.
    """
    ga = as_descriptor(g)
    fa = as_descriptor(f)
    gn = float(np.dot(ga, ga))
    fn = float(np.dot(fa, fa))
    if gn == 0.0 or fn == 0.0:
        raise ZeroDivisionError("cosine similarity undefined for zero-norm descriptor")
    c = float(np.dot(ga, fa)) / np.sqrt(gn * fn)
    return max(-1.0, min(1.0, c))


def naive_count(query: np.ndarray, frame: np.ndarray, tau1: float, tau2: float) -> int:
    count = 0
    for g in query:
        d = [sq_dist(g, f) for f in frame]
        order = sorted(range(len(d)), key=lambda j: d[j])
        j1, j2 = order[0], order[1]
        if d[j2] <= 0.0:
            continue
        if d[j1] / d[j2] >= tau1 * tau1:
            continue
        try:
            if cosine_sim(g, frame[j1]) <= tau2:
                continue
        except ZeroDivisionError:
            continue
        count += 1
    return count


def naive_best(query, frames, ids, tau1, tau2):
    best_id, best_n = None, -1
    for fid, fr in zip(ids, frames):
        if len(fr) < 2:
            n = 0
        else:
            n = naive_count(query, fr, tau1, tau2)
        if n > best_n or (n == best_n and fid < best_id):
            best_id, best_n = fid, n
    return best_id, best_n


def test_sq_dist_known_value():
    assert sq_dist(vec(3.0), vec(0.0, 4.0)) == pytest.approx(25.0, abs=1e-12)


def test_sq_dist_zero_on_identical():
    g = vec(1.0, 2.0, 3.0)
    assert sq_dist(g, g) == 0.0


def test_cosine_known_value():
    # classic 3-4-5 pair: cos = 24/25 = 0.96, just under the default gate
    assert cosine_sim(vec(3.0, 4.0), vec(4.0, 3.0)) == pytest.approx(0.96, abs=1e-12)


def test_cosine_rejects_zero_vector():
    with pytest.raises(ZeroDivisionError):
        cosine_sim(vec(0.0), vec(1.0))


def test_as_descriptor_validates():
    with pytest.raises(ValueError):
        as_descriptor(np.zeros(64))
    bad = np.zeros(DESCRIPTOR_DIM)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        as_descriptor(bad)


def test_descriptor_set_copies_and_is_readonly():
    src = np.random.default_rng(0).standard_normal((4, DESCRIPTOR_DIM)).astype(np.float32)
    ds = DescriptorSet(src)
    src[0, 0] = 99.0
    assert ds.array[0, 0] != 99.0
    with pytest.raises(ValueError):
        ds.array[0, 0] = 1.0
    assert len(ds) == 4


def test_descriptor_set_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DescriptorSet(np.zeros((3, 64)))
    with pytest.raises(ValueError):
        DescriptorSet(np.full((2, DESCRIPTOR_DIM), np.nan))
    assert len(DescriptorSet.empty()) == 0


def test_match_config_validates():
    with pytest.raises(ValueError):
        MatchConfig(tau1=0.0)
    with pytest.raises(ValueError):
        MatchConfig(tau1=1.0)
    with pytest.raises(ValueError):
        MatchConfig(tau2=1.5)


def one_row(g) -> DescriptorSet:
    """A 1-row query: one keypoint matched on its own."""
    return DescriptorSet(np.reshape(g, (1, DESCRIPTOR_DIM)))


def triples(first, widths, r, f, j, hr, hc):
    """A chunk's matches as (row, frame, keypoint) triples: its pair matches, then each settled hit in every frame covering its column."""
    held = (first <= hc[:, None]) & (hc[:, None] < first + widths)
    at, frame = np.nonzero(held)
    return np.concatenate([r, hr[at]]), np.concatenate([f, frame]), np.concatenate([j, hc[at] - first[frame]])


def frame_sets(block, starts, stops):
    """Each frame of the columns (block, starts, stops) as a set that owns a copy of its rows."""
    return [DescriptorSet(block.array[a:b]) for a, b in zip(starts.tolist(), stops.tolist())]


def matches(query, frames, cfg):
    """(m, p) index of the keypoint each query row matches in each frame of the columns frames, -1 for none, from _matched's triples."""
    match = np.full((len(query), len(frames[1])), -1, dtype=np.int64)
    for lo, first, widths, *found in _matched(query, *frames, cfg):
        r, f, j = triples(first, widths, *found)
        assert len(set(zip(r.tolist(), f.tolist()))) == len(r)  # one match per pair
        assert np.all(match[r, lo + f] == -1)
        match[r, lo + f] = j
    return match


def test_match_keypoint_accepts_exact_twin():
    rng = np.random.default_rng(2)
    frame_arr = unit_rows(rng, 10)
    frame = DescriptorSet(frame_arr)
    g = frame_arr[3]
    assert matches(one_row(g), packed([frame]), MatchConfig())[0, 0] == 3


def test_match_keypoint_cosine_gate():
    # both rows far apart so the ratio test passes toward row 0,
    # but cos(g, row0) = 0.96 < 0.97 blocks the match
    frame = DescriptorSet(np.stack([vec(4.0, 3.0), vec(0.0, 0.0, 50.0)]))
    g = vec(3.0, 4.0)
    assert count_correspondences(one_row(g), frame, MatchConfig()) == 0
    assert matches(one_row(g), packed([frame]), MatchConfig(tau2=0.95))[0, 0] == 0


def test_match_keypoint_ratio_test():
    # two near-identical best candidates: ratio ~= 1 fails the test
    frame = DescriptorSet(np.stack([vec(1.0, 0.01), vec(1.0, -0.01)]))
    g = vec(1.0)
    assert count_correspondences(one_row(g), frame, MatchConfig()) == 0


def test_match_keypoint_needs_two_rows():
    frame = DescriptorSet(vec(1.0).reshape(1, -1))
    with pytest.raises(FrameTooSmallError):
        count_correspondences(one_row(vec(1.0)), frame, MatchConfig())


def test_count_correspondences_empty_query_is_zero():
    rng = np.random.default_rng(3)
    frame = DescriptorSet(unit_rows(rng, 5))
    assert count_correspondences(DescriptorSet.empty(), frame, MatchConfig()) == 0


def test_count_self_match():
    rng = np.random.default_rng(4)
    ds = DescriptorSet(unit_rows(rng, 30))
    assert count_correspondences(ds, ds, MatchConfig()) == 30


def test_count_matches_naive_reference():
    rng = np.random.default_rng(5)
    cfg = MatchConfig()
    for _ in range(20):
        nq = int(rng.integers(1, 20))
        nf = int(rng.integers(2, 30))
        q = unit_rows(rng, nq)
        f = unit_rows(rng, nf)
        # plant twins for some query rows so matches actually occur
        for i in range(0, nq, 2):
            f[int(rng.integers(0, nf))] = q[i] + rng.standard_normal(DESCRIPTOR_DIM) * 0.01
        got = count_correspondences(DescriptorSet(q), DescriptorSet(f), cfg)
        want = naive_count(q, f, cfg.tau1, cfg.tau2)
        assert got == want


def test_best_match_prefers_higher_count_then_lower_id():
    rng = np.random.default_rng(6)
    base = unit_rows(rng, 12)
    noisy = base + rng.standard_normal(base.shape) * 0.01
    full = DescriptorSet(base)
    partial = DescriptorSet(np.vstack([base[:6], unit_rows(rng, 6)]))
    query = DescriptorSet(noisy)

    fid, count = best_match(query, as_candidates([(7, partial), (3, full)]), MatchConfig())
    assert fid == 3
    assert count == 12

    # identical frames: the lower id wins the tie
    fid, _ = best_match(query, as_candidates([(9, full), (2, full)]), MatchConfig())
    assert fid == 2


def test_best_match_skips_tiny_frames(caplog, monkeypatch):
    rng = np.random.default_rng(7)
    tiny = DescriptorSet(unit_rows(rng, 1))
    fid, count = best_match(DescriptorSet(unit_rows(rng, 3)), as_candidates([(1, tiny)]), MatchConfig())
    assert (fid, count) == (1, 0)
    # tiny frames among scored ones: logged, scored zero, the rest scored
    # as on their own
    base = unit_rows(rng, 8)
    query = DescriptorSet(base + rng.standard_normal(base.shape) * 0.01)
    frames = [(5, tiny), (4, DescriptorSet(base[:5])), (3, DescriptorSet.empty()), (2, DescriptorSet(base))]
    caplog.clear()
    assert best_match(query, as_candidates(frames), MatchConfig()) == (2, 8)
    assert best_match(query, as_candidates(frames[:3]), MatchConfig()) == (4, 5)
    # frames of no rows alone, or in a chunk of their own before a frame
    # wider than a chunk's budget
    monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(4, len(query)))
    assert best_match(query, as_candidates([(3, DescriptorSet.empty())] * 2), MatchConfig()) == (3, 0)
    candidates = _Candidates(np.array([6, 2, 4], dtype=np.uint64), *columns(DescriptorSet(base), [0, 0, 8], [0, 8, 8]))
    assert best_match(query, candidates, MatchConfig()) == (2, 8)
    assert [r.getMessage() for r in caplog.records] == ["skipped 2 candidate frame(s) with fewer than 2 descriptors"] * 4


def test_best_match_rejects_empty_candidates():
    rng = np.random.default_rng(8)
    with pytest.raises(EmptyCandidatesError):
        best_match(DescriptorSet(unit_rows(rng, 3)), as_candidates([]), MatchConfig())


def test_best_match_order_independent():
    rng = np.random.default_rng(9)
    frames = [(i, DescriptorSet(unit_rows(rng, int(rng.integers(2, 15))))) for i in range(8)]
    query = DescriptorSet(frames[5][1].array + rng.standard_normal((len(frames[5][1]), DESCRIPTOR_DIM)).astype(np.float32) * np.float32(0.01))
    forward = best_match(query, as_candidates(frames), MatchConfig())
    backward = best_match(query, as_candidates(reversed(frames)), MatchConfig())
    assert forward == backward


def test_ragged_and_uniform_batches_agree():
    # same candidate set padded to uniform size must yield identical counts
    rng = np.random.default_rng(10)
    base = unit_rows(rng, 20)
    query = DescriptorSet(base + rng.standard_normal(base.shape) * 0.01)
    uniform = [(i, DescriptorSet(np.vstack([base[i : i + 10], unit_rows(rng, 10)]))) for i in range(4)]
    ragged = uniform + [(99, DescriptorSet(unit_rows(rng, 7)))]
    u_fid, u_count = best_match(query, as_candidates(uniform), MatchConfig())
    r_fid, r_count = best_match(query, as_candidates(ragged), MatchConfig())
    assert (u_fid, u_count) == (r_fid, r_count)


def test_count_is_permutation_invariant():
    # shuffling either descriptor set must not change the count
    rng = np.random.default_rng(11)
    for trial in range(8):
        base = unit_rows(rng, 25)
        query = DescriptorSet(np.vstack([base[:12] + rng.standard_normal((12, DESCRIPTOR_DIM)) * 0.02, unit_rows(rng, 8)]))
        frame = DescriptorSet(base)
        cfg = MatchConfig()
        ref = count_correspondences(query, frame, cfg)
        q_perm = DescriptorSet(query.array[rng.permutation(len(query))])
        f_perm = DescriptorSet(frame.array[rng.permutation(len(frame))])
        assert count_correspondences(q_perm, frame, cfg) == ref
        assert count_correspondences(query, f_perm, cfg) == ref
        assert count_correspondences(q_perm, f_perm, cfg) == ref


def test_count_monotone_in_thresholds():
    # loosening either gate can only admit more correspondences
    rng = np.random.default_rng(12)
    base = unit_rows(rng, 40)
    # graded noise so the gates bite at different thresholds per row
    scales = np.linspace(0.0, 0.6, 40)[:, None]
    query = DescriptorSet(base + rng.standard_normal(base.shape) * scales)
    frame = DescriptorSet(base)

    counts = [count_correspondences(query, frame, MatchConfig(tau1=t, tau2=0.5)) for t in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]  # the sweep actually exercises the gate

    # gentler noise so the cosine gate, not the ratio test, is the binding one
    fine = DescriptorSet(base + rng.standard_normal(base.shape) * np.linspace(0.0, 0.08, 40)[:, None])
    counts = [count_correspondences(fine, frame, MatchConfig(tau1=0.99, tau2=t)) for t in (0.999, 0.995, 0.99, 0.97, 0.9)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_window_is_a_zero_copy_view_with_its_own_norms():
    # each frame's set a candidate yields is a view of its rows of the
    # block, overlapping or nested, and its norms equal the block's there
    rng = np.random.default_rng(13)
    block = DescriptorSet(unit_rows(rng, 30) * rng.uniform(0.5, 2.0, (30, 1)))
    starts, stops = [0, 5, 8, 8], [12, 25, 15, 8]
    candidates = _Candidates(np.arange(4, dtype=np.uint64), *columns(block, starts, stops))
    for (fid, ds), a, b in zip(candidates, starts, stops):
        assert np.shares_memory(ds.array, block.array) or a == b
        assert np.array_equal(ds.array, block.array[a:b]) and not ds.array.flags.writeable
        assert np.array_equal(ds.norms, block.norms[a:b])
        assert np.array_equal(ds.norms, np.einsum("ij,ij->i", block.array[a:b], block.array[a:b]))


def test_candidates_cast_uint64_row_bounds_to_int64():
    # a database's frame table holds row bounds as uint64, which the index
    # arithmetic would promote to float64
    rng = np.random.default_rng(15)
    block = DescriptorSet(unit_rows(rng, 30))
    starts, stops = [0, 5, 8, 8, 20], [12, 25, 15, 8, 30]
    query = DescriptorSet(block.array[5:25] + rng.standard_normal((20, DESCRIPTOR_DIM)) * 0.01)
    ids = np.array([9, 4, 7, 1, 3], dtype=np.uint64)
    wide = _Candidates(ids, block, np.array(starts, dtype=np.uint64), np.array(stops, dtype=np.uint64))
    assert wide.starts.dtype == wide.stops.dtype == np.int64
    assert wide.starts.tolist() == starts and wide.stops.tolist() == stops
    narrow = _Candidates(ids, *columns(block, starts, stops))
    result = best_match(query, wide, MatchConfig())
    assert result == best_match(query, narrow, MatchConfig()) and result[1] > 0


def test_interleaved_scans_sharing_the_scratch_buffers_match_separate_ones(monkeypatch):
    # three scans advanced chunk by chunk in turn reuse one thread's
    # product buffer; every chunk must be scored before the next
    # overwrites it. Chunks of at most 40 rows of the 20-row queries,
    # exclusion-style gaps and sets that own their rows make many chunks
    # of unequal widths
    rng = np.random.default_rng(14)
    monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(40, 20))
    block = DescriptorSet(unit_rows(rng, 400))
    scans = []
    for step, gap in ((5, (30, 36)), (7, (10, 13))):
        starts = np.arange(0, 380, step)
        starts = np.concatenate([starts[: gap[0]], starts[gap[1] :]])
        query = DescriptorSet(block.array[100:120] + rng.normal(0, 0.02, (20, DESCRIPTOR_DIM)))
        scans.append((query, columns(block, starts, starts + 20)))
    # sets that own their rows, packed into one block of copies
    scans.append((scans[0][0], packed(frame_sets(*scans[1][1]))))
    # zip_longest takes one chunk from each scan in turn
    pairs = list(zip_longest(*(_matched(q, *frames, MatchConfig()) for q, frames in scans)))
    for i, (query, frames) in enumerate(scans):
        chunks = [p[i] for p in pairs if p[i] is not None]
        assert len(chunks) > 1
        sets = frame_sets(*frames)
        counts = np.zeros(len(sets), dtype=np.int64)
        for lo, first, widths, *found in chunks:
            _, f, _ = triples(first, widths, *found)
            counts[lo : lo + len(first)] = np.bincount(f, minlength=len(first))
        # each set alone is one chunk scored in place
        assert counts.tolist() == [count_correspondences(query, s, MatchConfig()) for s in sets]
        assert counts.max() > 0


@pytest.mark.parametrize("chunk_cols", [None, 60, 200, 1])
@pytest.mark.parametrize("tau1, tau2", [(0.8, 0.97), (0.95, 0.5), (0.9, 1.0), (0.95, -0.5)])
def test_windows_of_one_block_score_like_independent_copies(tau1, tau2, chunk_cols, monkeypatch):
    # shared: frames of one block with starts that never decrease, as a
    # scan's are: sliding overlapping frames (steps that do and do not
    # divide the width), an exclusion-style gap, nested and unequal
    # frames, scored from the block in place. mixed: some of those beside
    # rows of a second block, a standalone set and descending runs, apart
    # and overlapping, all packed into one block of copies. Over
    # descriptors of uneven norms; scored in one chunk, or in chunks of at
    # most chunk_cols candidate rows
    rng = np.random.default_rng(14)
    cfg = MatchConfig(tau1=tau1, tau2=tau2)
    pool = unit_rows(rng, 400) * rng.uniform(0.3, 3.0, (400, 1))
    block = DescriptorSet(pool)
    other = DescriptorSet(unit_rows(rng, 60))
    # twins of rows the shared frames hold, and of rows the mixed ones do
    twins = np.vstack([pool[240:260], pool[100:120]]) + rng.standard_normal((40, DESCRIPTOR_DIM)) * 0.01
    query = DescriptorSet(np.vstack([twins, unit_rows(rng, 5), np.zeros((1, DESCRIPTOR_DIM))]))
    spans = (
        [(s, s + 50) for s in range(0, 60, 10)]
        + [(s, s + 50) for s in range(220, 330, 7)]
        + [(s, s + w) for s, w in ((330, 40), (331, 3), (335, 3), (360, 40))]
    )
    shared = columns(block, *zip(*spans))
    runs = (
        [(s, s + 50) for s in range(0, 120, 10)]
        + [(s, s + 35) for s in (300, 200, 100)]
        + [(s, s + 40) for s in (160, 150, 140)]
        + [(s, s + 3) for s in range(95, 140)]
    )
    mixed = frame_sets(*columns(block, *zip(*runs)))
    mixed[12:12] = [DescriptorSet(other.array[:30]), DescriptorSet(other.array[30:]), DescriptorSet(unit_rows(rng, 9))]
    mixed = packed(mixed)
    whole = {len(frames[1]): _counts(query, *frames, cfg) for frames in (shared, mixed)}
    if chunk_cols is not None:
        monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(chunk_cols, len(query)))
    max_cols = max(1, matching._E_BYTES // (4 * len(query)))
    chunks = [(lo, lo + len(widths), np.shares_memory(rows, block.array)) for lo, rows, _, _, widths in _candidate_rows(*shared, max_cols)]
    assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
    assert all(in_place for _, _, in_place in chunks)  # every chunk is one span of the block
    if chunk_cols is None:
        # one chunk, the gap's rows between the runs of frames scored with them
        assert chunks == [(0, len(spans), True)]
    elif chunk_cols == 1:
        assert [hi - lo for lo, hi, _ in chunks] == [1] * len(spans)
    elif chunk_cols == 60:
        # the first run of frames splits after its second frame
        assert chunks[0] == (0, 2, True)
    else:
        # the gap's 120 rows count against the budget: the first run of
        # frames (rows 0-100) is a chunk, the rest (220-400) another
        assert chunks == [(0, 6, True), (6, len(spans), True)]
    for frames, at in ((shared, (0, 5, 6, 21, 23, 25)), (mixed, (0, 9, 12, 15, 18, 21, 28))):
        sets = frame_sets(*frames)
        got = _counts(query, *frames, cfg)
        assert got.tolist() == whole[len(sets)].tolist()
        assert got.tolist() == _counts(query, *packed(sets), cfg).tolist()
        assert (got.sum() > 0) == (tau2 < 1.0)  # clipped cosines never exceed 1
        for i in at:
            assert got[i] == naive_count(query.array.astype(np.float64), sets[i].array.astype(np.float64), cfg.tau1, cfg.tau2)
        ids = np.arange(len(sets), dtype=np.uint64)
        assert best_match(query, _Candidates(ids, *frames), cfg) == best_match(query, as_candidates(zip(ids.tolist(), sets)), cfg)


def test_gap_rows_match_for_no_frame(monkeypatch):
    # windows of 20 rows sliding by 4 over one block, those starting at
    # rows 100-176 excluded: rows 116-180 lie in no candidate window. The
    # query copies six of those rows, which a chunk spanning the gap
    # multiplies and settles as hits, and one row (50) that five candidate
    # windows hold. Only that row may count, in exactly those windows,
    # whether the gap lies inside a chunk (in one of all rows, or in one of
    # rows 96-208, mostly gap) or between two (the gap scored by none)
    rng = np.random.default_rng(26)
    block = DescriptorSet(unit_rows(rng, 300))
    starts = np.arange(0, 281, 4, dtype=np.int64)
    starts = starts[(starts < 100) | (starts >= 180)]
    stops = starts + 20
    gap = [118, 127, 138, 149, 160, 172]
    query = DescriptorSet(block.array[gap + [50]])
    cfg = MatchConfig()
    want = [count_correspondences(query, ds, cfg) for ds in frame_sets(block, starts, stops)]
    assert want == [int(a <= 50 < b) for a, b in zip(starts.tolist(), stops.tolist())]
    for cols, span in ((None, (0, 300)), (112, (96, 208)), (40, None)):
        if cols is not None:
            monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(cols, len(query)))
        assert _counts(query, block, starts, stops, cfg).tolist() == want
        spans, hits = [], []  # each chunk's rows of the block, and the settled hits among the gap's
        for lo, first, widths, _, _, _, hr, hc in _matched(query, block, starts, stops, cfg):
            a = int(starts[lo])
            spans.append((a, a + int((first + widths).max())))
            hits += [a + c for c in hc.tolist() if 116 <= a + c < 180]
        assert [s for s in spans if s[0] < 116 and s[1] > 180] == ([span] if span else [])
        assert sorted(hits) == (gap if span else [])


@pytest.mark.parametrize("tau2", [-0.5, 0.0, 0.3, 0.8, 0.97, 0.999])
def test_gate_bound_admits_every_entry_the_cosine_gate_passes(tau2):
    # entries within 1e-6 of the gate's cosine, at the norm range's ends
    # where the bound is tight
    rng = np.random.default_rng(15)
    cfg = MatchConfig(tau2=tau2)
    fmin, fmax = 0.25, 4.0
    fn = rng.choice(np.array([fmin, fmax]), 4000)
    qq = rng.uniform(0.2, 5.0, 4000).astype(np.float32).astype(np.float64)
    cos = tau2 + rng.uniform(-1e-6, 1e-6, 4000)
    e = (fn - 2.0 * cos * np.sqrt(qq * fn)).astype(np.float32).astype(np.float64)
    passes, _ = _verdict(qq, e, e, fn, cfg)
    assert passes.any() and not passes.all()
    bound = _gate_bound(qq, fmin, fmax, tau2)
    assert bound.dtype == np.float32
    assert np.all(e[passes] < bound[passes])


# --- the chunker against a frame-by-frame walk of its span rule ---


def walk_spans(starts, stops, max_cols):
    """Per chunk (lo, frames, row span), taking sets (frames) one at a time while the rows from the chunk's first start to the greatest stop so far stay within max_cols."""
    lo, span = 0, None
    for i, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
        if span is not None and max(span[1], b) - span[0] > max_cols:
            yield lo, i - lo, span
            lo, span = i, None
        span = (a, b) if span is None else (span[0], max(span[1], b))
    if span is not None:
        yield lo, len(starts) - lo, span


@st.composite
def scan_rows(draw):
    """Frames over one block as a scan hands them over: starts that never decrease, frames that share
    rows (slide), own them (touch, gap) or sit inside another (same, nested), of 0 rows up, an
    exclusion gap or none, and a budget of 1 row up."""
    n = draw(st.integers(1, 40))
    starts, stops, at, width = [], [], 0, 0
    for _ in range(n):
        move = draw(st.sampled_from(["same", "slide", "touch", "gap", "nested"]))
        if move == "slide":
            at += draw(st.integers(1, 4))
        elif move == "touch":
            at += width
        elif move == "gap":
            at += width + draw(st.integers(1, 5))
        elif move == "nested":
            at += 1
        width = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 30]))
        starts.append(at)
        stops.append(at + width)
    if n > 2 and draw(st.booleans()):
        a = draw(st.integers(1, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        starts, stops = starts[:a] + starts[b:], stops[:a] + stops[b:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = DescriptorSet(rng.standard_normal((max(stops), DESCRIPTOR_DIM)))
    return block, np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64), draw(st.integers(1, 64))


def assert_chunks_equal_the_walk(block, starts, stops, max_cols):
    """Every chunk's first frame, frames, rows (the block's own, in place), norms, first rows and widths are the walk's."""
    got = list(_candidate_rows(block, starts, stops, max_cols))
    want = list(walk_spans(starts, stops, max_cols))
    assert len(got) == len(want)
    for (lo, rows, norms, first, widths), (lo_w, k, (a, b)) in zip(got, want):
        assert (lo, len(first), len(rows)) == (lo_w, k, b - a)
        assert len(rows) == 0 or np.shares_memory(rows, block.array)
        assert np.array_equal(rows, block.array[a:b])
        assert np.array_equal(norms, block.norms[a:b])
        assert first.dtype == widths.dtype == np.int64
        assert np.array_equal(first, starts[lo : lo + k] - a) and np.array_equal(widths, stops[lo : lo + k] - starts[lo : lo + k])
        assert len(rows) <= max_cols or k == 1
        assert np.all(np.diff(first) >= 0)  # first never decreases, as _settle_lone reads it


def test_columnar_chunks_equal_the_per_set_walk():
    check = FUZZ(given(case=scan_rows())(lambda case: assert_chunks_equal_the_walk(*case)))
    check()
    # a long drive with an exclusion gap (rows 402-420 lie in no frame),
    # every 10th window repeated twice and a window nested in every 7th,
    # which add frames but no rows. The gap lies inside a chunk or between
    # two, as the budget falls
    block = DescriptorSet(unit_rows(np.random.default_rng(25), 1100))
    starts = np.delete(np.arange(1097), np.s_[400:420])
    stops = starts + 3
    repeat = np.repeat(np.arange(len(starts)), np.where(starts % 10 == 0, 3, 1))
    starts, stops = starts[repeat], stops[repeat]
    nested = np.flatnonzero((starts % 7 == 0) & (np.append(starts[1:], -1) != starts))
    starts, stops = np.insert(starts, nested + 1, starts[nested] + 1), np.insert(stops, nested + 1, starts[nested] + 2)
    assert np.all(np.diff(starts) >= 0)
    spanned = set()
    for max_cols in (7, 300, 500, 2000):
        assert_chunks_equal_the_walk(block, starts, stops, max_cols)
        spanned |= {starts[lo] < 402 and starts[lo] + len(rows) > 420 for lo, rows, *_ in _candidate_rows(block, starts, stops, max_cols)}
    assert spanned == {True, False}


# --- float32 oracle: argmin over every (row, frame) pair's whole segment of E ---


def gate_segments(seg, first, qq, fnorms, cfg):
    """Matched index within every row of seg, -1 where a gate fails.

    Each row of seg is one query row's E entries over one frame; first
    holds the frame's first column of E and qq the query row's |g|^2. argmin
    and min propagate NaN, so a segment holding a NaN matches nothing.
    """
    j1, i = seg.argmin(axis=1), np.arange(len(seg))
    e1 = seg[i, j1].astype(np.float64)
    rest = seg.copy()
    rest[i, j1] = np.inf
    _, passed = _verdict(qq, e1, rest.min(axis=1).astype(np.float64), fnorms[first + j1].astype(np.float64), cfg)
    return np.where(passed, j1, -1)


def oracle_matches(query, frames, cfg):
    """_matched without the screen: E in full per chunk, and every pair's top-2 from its whole segment.

    The chunks and their products are _matched's own, so E is the same bit
    for bit and only the top-2 is compared.
    """
    m, p = len(query), len(frames[1])
    q = query.array * np.float32(-2.0)
    qq = query.norms.astype(np.float64)
    match = np.full((m, p), -1, dtype=np.int64)
    max_cols = max(1, matching._E_BYTES // (4 * m))
    for lo, rows, fnorms, first, widths in _candidate_rows(*frames, max_cols):
        e = q @ rows.T
        e += fnorms
        r, f = np.divmod(np.arange(m * len(widths)), len(widths))
        for k in np.unique(widths):
            pick = np.flatnonzero(widths[f] == k)
            rk, fk = r[pick], f[pick]
            seg = np.lib.stride_tricks.sliding_window_view(e, k, axis=1)[rk, first[fk]]
            match[rk, lo + fk] = gate_segments(seg, first[fk], qq[rk], fnorms, cfg)
    return match


SEED = 32
"""Hypothesis seed of FUZZ."""


def FUZZ(test):
    """200 examples from a fixed seed, the same whatever the test's source: an edit to the test keeps the examples it drew.

    Derandomized examples are keyed on the test's source, comments aside, so any edit to its code redrew them all.
    """
    return seed(SEED)(settings(max_examples=200, deadline=None, database=None)(test))


@st.composite
def scans(draw):
    """A block of rows with frames of it as a scan's columns, a query and thresholds, drawn to hit ties, zeros and overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        # few distinct small components: exact ties between distances, and
        # zeros of either sign
        pool = rng.integers(-2, 3, (n, DESCRIPTOR_DIM)) * rng.choice([-1.0, 1.0], (n, DESCRIPTOR_DIM))
        pool[:, draw(st.integers(1, DESCRIPTOR_DIM)) :] = 0.0
    else:
        pool = unit_rows(rng, n) * rng.uniform(0.3, 3.0, (n, 1))
    specials = st.sampled_from(["dup", "zero", "negzero", "huge", "twin"])
    for kind, i, j in draw(st.lists(st.tuples(specials, st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if kind == "dup":
            pool[i] = pool[j]
        elif kind in ("zero", "negzero"):
            pool[i] = 0.0 if kind == "zero" else -0.0
        elif kind == "huge":
            # |f|^2 and g.f overflow float32: E is inf or NaN
            pool[i] = unit_rows(rng, 1)[0] * 3e38
        else:
            pool[i] = pool[j] + rng.standard_normal(DESCRIPTOR_DIM) * 1e-3
    block = DescriptorSet(pool.astype(np.float32))
    layout = draw(st.sampled_from(["any", "sliding", "gapped"]))
    if layout == "any":
        spans = []
        for start, width, after in draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(2, n), st.booleans()), min_size=1, max_size=8)):
            if after and spans and spans[-1][1] <= n - 2:
                start = spans[-1][1]  # adjacent to the last
            spans.append((start, min(start + width, n)))
    else:
        # as a synthetic drive's scan: equal-width windows sliding by a
        # fixed step, with or without an exclusion gap of some of them
        width = draw(st.integers(2, n))
        starts = list(range(0, n - width + 1, draw(st.integers(1, width))))
        if layout == "gapped" and len(starts) > 2:
            a = draw(st.integers(1, len(starts) - 2))
            starts = starts[:a] + starts[draw(st.integers(a + 1, len(starts) - 1)) :]
        spans = [(s, s + width) for s in starts]
    frames = columns(block, *zip(*spans))
    if draw(st.booleans()):
        # a set of its own among them: every frame's rows packed into one block of copies
        sets = frame_sets(*frames)
        sets.insert(draw(st.integers(0, len(sets))), DescriptorSet(unit_rows(rng, draw(st.integers(2, 6)))))
        frames = packed(sets)
    m = draw(st.integers(1, 8))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["copy", "twin", "zero", "huge", "random"]), min_size=m, max_size=m)):
        src = pool[rng.integers(n)]
        rows.append(
            {
                "copy": src,
                "twin": src + rng.standard_normal(DESCRIPTOR_DIM) * 0.01,
                "zero": np.zeros(DESCRIPTOR_DIM),
                "huge": src / max(np.abs(src).max(), 1e-30) * 3e38,
                "random": unit_rows(rng, 1)[0],
            }[kind]
        )
    query = DescriptorSet(np.array(rows, dtype=np.float32))
    cfg = MatchConfig(tau1=draw(st.sampled_from([0.5, 0.8, 0.99])), tau2=draw(st.sampled_from([-0.5, 0.0, 0.97, 1.0])))
    chunk_cols = draw(st.sampled_from([None, 2, 5, 17]))
    return query, frames, cfg, chunk_cols


def screen_spy(calls):
    """Patch _screen to count the chunks its min test skips ("skipped") and those it compares ("compared").

    A chunk is compared when _screen calls np.greater_equal; a skipped chunk
    must keep nothing.
    """
    screen = matching._screen

    def counted(p, fnorms, bound, *span):
        with mock.patch.object(np, "greater_equal", wraps=np.greater_equal) as ge:
            flat, e = screen(p, fnorms, bound, *span)
        if ge.call_count:
            calls["compared"] += 1
        else:
            calls["skipped"] += 1
            assert len(flat) == len(e) == 0
        return flat, e

    return mock.patch.object(matching, "_screen", counted)


def lone_spy(calls):
    """Patch _settle_lone to count the calls that settle entries ("settled") and those that leave some for the pairs ("left")."""
    settle = matching._settle_lone

    def counted(flat, *args):
        out = settle(flat, *args)
        calls["settled"] += len(out[0]) < len(flat)
        calls["left"] += len(out[0]) > 0
        return out

    return mock.patch.object(matching, "_settle_lone", counted)


def bound_spy(calls):
    """Patch _admitted_rows and _product to count the chunks the bound product admits no row of ("unmultiplied"), those whose
    product it narrows to some of their rows ("spans") and the products of the other rows that the pair path takes after
    a span ("rest")."""
    admitted, product = matching._admitted_rows, matching._product
    last = []

    def counted_bound(rows, *args):
        span = admitted(rows, *args)
        calls["unmultiplied"] += span is None
        calls["spans"] += span is not None and span != (0, len(rows))
        return span

    def counted_product(rows, *args):
        calls["rest"] += bool(last) and rows is last[0]  # a second product of one chunk's rows
        last[:] = [rows]
        return product(rows, *args)

    return mock.patch.multiple(matching, _admitted_rows=counted_bound, _product=counted_product)


def oracle_calls(patch=None):
    """Run the scans drawn by scans() through _counts and _matched, both equal to the oracle, under the patch; the spies' counts.

    Counted: chunks the min test skips or compares (screen_spy), lone-entry
    passes that settle or leave entries (lone_spy), _held_pairs calls
    ("pairs") and the bound product's cases (bound_spy).
    """
    calls = {"pairs": 0, "skipped": 0, "compared": 0, "settled": 0, "left": 0, "unmultiplied": 0, "spans": 0, "rest": 0}
    held_pairs = matching._held_pairs

    def counted(*args):
        calls["pairs"] += 1
        return held_pairs(*args)

    @FUZZ
    @given(scan=scans())
    def check(scan):
        query, frames, cfg, chunk_cols = scan
        budget = matching._E_BYTES if chunk_cols is None else chunk_bytes(chunk_cols, len(query))
        with mock.patch.object(matching, "_E_BYTES", budget), mock.patch.object(matching, "_held_pairs", counted), screen_spy(calls), np.errstate(over="ignore", invalid="ignore"):
            counts = _counts(query, *frames, cfg)
            got = matches(query, frames, cfg)
            want = oracle_matches(query, frames, cfg)
        assert counts.dtype == np.int64 and np.array_equal(counts, (want >= 0).sum(axis=0))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    with lone_spy(calls), bound_spy(calls), patch or nullcontext():
        check()
    # the pairs are formed after every lone-entry pass that leaves entries,
    # and without one where the entries outnumber the pairs
    assert calls["settled"] > 0 and 0 < calls["left"] < calls["pairs"], calls
    assert calls["compared"] > 0, calls
    return calls


def test_matches_equal_the_full_segment_oracle():
    # per-frame counts and every matched index equal the oracle's, with
    # lone entries settled once each, and the pairs holding an entry left
    # over scored from their frames' rows of E, both after the lone-entry
    # pass and in chunks where the entries outnumber the pairs and the pass
    # does not run. Whether a draw holds a chunk the min test skips depends
    # on the examples drawn, so the skip is asserted on fixed data
    # (test_extreme_tau2_scans_equal_the_oracle). No drawn chunk reaches the
    # size floor of the bound product
    calls = oracle_calls()
    assert calls["unmultiplied"] == calls["spans"] == calls["rest"] == 0, calls


def test_matches_equal_the_full_segment_oracle_without_the_size_floors():
    # the same draws with every chunk of finite norms taking the bound
    # product first, over spans of any width: some chunks are not
    # multiplied, some only over a span of their rows, and some of those
    # multiply the rest of their rows for the pair path. Below the floors a
    # product over some rows need not keep the whole chunk's bits; on these
    # draws the matches are the oracle's all the same
    calls = oracle_calls(mock.patch.multiple(matching, _BOUND_FLOOR=(0, 0), _MIN_SPAN=0))
    assert calls["unmultiplied"] > 0 and calls["spans"] > 0 and calls["rest"] > 0, calls


def axis(i, cos=1.0, spare=None):
    """Unit vector at cosine cos to axis i, leaning towards axis spare."""
    v = vec(*([0.0] * i + [cos]))
    if spare is not None:
        v[spare] = np.sqrt(1.0 - cos * cos)
    return v


def test_lone_entries_left_to_the_pairs_beside_rows_of_two_entries_in_a_frame(monkeypatch):
    # overlapping windows of one block, holding for query row 0 a row at
    # cosine 0.975 (lone, but the bound cannot settle its ratio test), for
    # row 1 two rows at cosines 0.999 and 0.98 (two entries in the windows
    # holding both) and for row 2 its twin (lone, settled); every other
    # row is orthogonal to the query
    rows = [axis(20 + i) for i in range(24)]
    rows[3], rows[8], rows[11], rows[15] = axis(0, 0.975, 10), axis(1, 0.999, 11), axis(1, 0.98, 12), axis(2)
    block = DescriptorSet(np.stack(rows))
    starts = np.arange(0, 19, 2)
    frames = columns(block, starts, starts + 6)
    query = DescriptorSet(np.stack([axis(0), axis(1), axis(2)]))
    cfg = MatchConfig()
    calls = {"settled": 0, "left": 0, "pairs": 0, "rows": 0}
    held_pairs, top_two = matching._held_pairs, matching._top_two
    monkeypatch.setattr(matching, "_held_pairs", lambda *a: calls.update(pairs=calls["pairs"] + 1) or held_pairs(*a))
    monkeypatch.setattr(matching, "_top_two", lambda *a: calls.update(rows=calls["rows"] + len(a[2])) or top_two(*a))
    with lone_spy(calls):
        got = matches(query, frames, cfg)
        counts = _counts(query, *frames, cfg)
    want = oracle_matches(query, frames, cfg)
    assert np.array_equal(got, want) and np.array_equal(counts, (want >= 0).sum(axis=0))
    held = lambda row: [i for i, s in enumerate(starts) if s <= row < s + 6]
    assert [i for i in range(len(starts)) if got[0, i] >= 0] == held(3)  # after the whole row of E
    assert [i for i in range(len(starts)) if got[2, i] >= 0] == held(15)  # settled once
    # the frames holding both of row 1's entries take the nearer
    assert all(got[1, i] == 8 - starts[i] for i in set(held(8)) & set(held(11)))
    assert calls["settled"] == calls["left"] == calls["pairs"] == 2  # one pass per call above
    assert calls["rows"] > 0


def test_an_entry_is_lone_only_where_no_frame_holding_it_holds_another():
    # rows 5 and 8 at cosine 0.99 to the query row, in different
    # directions: window 0:9 holds both, ratio 1, no match; the nested 1:7
    # holds row 5 alone and matches it. The last window starting at or
    # before column 5 ends before column 8, so the span of the frames
    # holding column 5 must run to the running maximum end
    rows = [axis(20 + i) for i in range(12)]
    rows[5], rows[8] = axis(0, 0.99, 10), axis(0, 0.99, 11)
    block = DescriptorSet(np.stack(rows))
    frames = columns(block, [0, 1], [9, 7])
    query = one_row(axis(0))
    got = matches(query, frames, MatchConfig())
    assert got.tolist() == [[-1, 4]] and np.array_equal(got, oracle_matches(query, frames, MatchConfig()))
    assert _counts(query, *frames, MatchConfig()).tolist() == [0, 1]


def test_owned_rows_holding_noisy_copies_of_shared_landmarks_equal_the_oracle(monkeypatch):
    # frames that own their rows, each a noisy copy of a slice of shared
    # landmarks, as an ingested drive's are: a query keypoint has screened
    # entries in several frames, each lone in its own, so every one is
    # settled and no pair is formed. One frame's rows are at half norm, so
    # the gate's bound also screens in the entries of a query row at cosine
    # 0.9 to a landmark, which the gate then drops
    rng = np.random.default_rng(26)
    landmarks = unit_rows(rng, 80)
    frames = [DescriptorSet(landmarks[s : s + 20] + rng.normal(0, 0.01, (20, DESCRIPTOR_DIM))) for s in range(0, 61, 4)]
    frames[0] = DescriptorSet(frames[0].array * 0.5)
    aside = unit_rows(rng, 1)[0]
    aside -= (aside @ landmarks[45]) * landmarks[45]
    near = 0.9 * landmarks[45] + np.sqrt(0.19) * aside / np.linalg.norm(aside)
    query = DescriptorSet(np.vstack([landmarks[30:50] + rng.normal(0, 0.01, (20, DESCRIPTOR_DIM)), unit_rows(rng, 4), near]))
    cfg = MatchConfig()
    calls = {"settled": 0, "left": 0}
    monkeypatch.setattr(matching, "_held_pairs", lambda *a: pytest.fail("a pair was formed"))
    for chunk_cols in (None, 50):
        if chunk_cols is not None:
            monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(chunk_cols, len(query)))
        with lone_spy(calls):
            got = matches(query, packed(frames), cfg)
            counts = _counts(query, *packed(frames), cfg)
        want = oracle_matches(query, packed(frames), cfg)
        assert np.array_equal(got, want) and np.array_equal(counts, (want >= 0).sum(axis=0))
        assert ((got >= 0).sum(axis=1) >= 4).sum() >= 10  # keypoints matched in several frames
    assert calls["settled"] > 0 and calls["left"] == 0


def test_held_pairs_match_brute_force():
    # ragged, nested, unordered and repeated frames; entries from sparse to
    # every entry of E
    rng = np.random.default_rng(20)
    for _ in range(400):
        m, n, p = (int(v) for v in rng.integers(1, (6, 40, 10)))
        first = rng.integers(0, n, p)
        widths = rng.integers(1, n - first + 1)
        flat = np.flatnonzero(rng.random(m * n) < rng.choice([0.02, 0.1, 0.5, 1.0]))
        row, col = np.divmod(flat, n)
        want = {(row[e], f) for e in range(len(flat)) for f in np.flatnonzero((first <= col[e]) & (col[e] < first + widths))}
        r, f = _held_pairs(flat, (m, n), first, widths)
        assert np.all(np.diff(r) >= 0)  # row by row
        assert len(r) == len(want) and set(zip(r, f)) == want


def test_oracle_returns_no_match_where_e_holds_a_nan():
    # f0 = 3e38 g overflows: |f0|^2 = inf and -2 g.f0 = -inf, so E is NaN
    # there. The near twins of g would pass both gates, but argmin takes
    # the NaN, whose cosine gate fails, so the frame matches nothing
    g = unit_rows(np.random.default_rng(17), 1)[0]
    frame = DescriptorSet(np.stack([g * 3e38, g + 1e-3 * vec(1.0), g + 2e-2 * vec(0.0, 1.0)]).astype(np.float32))
    query = DescriptorSet(g.reshape(1, -1))
    cfg = MatchConfig(tau2=0.9)
    with np.errstate(over="ignore", invalid="ignore"):
        assert oracle_matches(query, packed([frame]), cfg)[0, 0] == -1
        assert matches(query, packed([frame]), cfg)[0, 0] == -1
        # without the overflowing row, the nearer twin is matched
        assert matches(query, columns(frame, [1], [3]), cfg)[0, 0] == 0


def test_screen_keeps_exactly_the_entries_below_the_bound():
    # each row has an entry at g = bound - fmin, rounded to float32 either
    # way, in the column of the least norm: large norms and small bounds,
    # where an unrounded shift of the bound would screen some of them out
    rng = np.random.default_rng(19)
    m, n = 64, 8
    for scale in 10.0 ** np.arange(6):
        fn = (scale * rng.uniform(1.0, 1.01, n)).astype(np.float32)
        g = (rng.standard_normal((m, n)) * 3.0 * scale).astype(np.float32)
        bound = (rng.uniform(-1.0, 1.0, m) * scale * 10.0 ** -rng.integers(0, 6, m)).astype(np.float32)
        g[:, fn.argmin()] = bound - fn.min()
        g[0, 1] = np.nan
        with np.errstate(invalid="ignore"):
            e = g + fn
            flat, vals = _screen(product(g), fn, bound)
            want = np.flatnonzero(~(e >= bound[:, None]))
        assert 1 in want  # NaN entries are kept
        assert np.array_equal(flat, want) and np.array_equal(vals, e.ravel()[want], equal_nan=True)


def product(g):
    """The chunk product _screen reads for E's g: one row per frame row, one column per query row."""
    return np.ascontiguousarray(g.T)


def screen_threshold(fnorms, bound):
    """Per-row t of _screen: one float32 step above bound - fmin."""
    return np.nextafter(bound - fnorms.min(), np.float32(np.inf))


@pytest.mark.parametrize("step, skipped", [(-1, False), (0, True), (1, True)], ids=["below", "at", "above"])
def test_min_test_skips_exactly_when_the_compare_keeps_nothing(step, skipped):
    # one low entry, in the row holding the greatest t, one float32 step
    # either side of that t; every other entry well above every row's t
    rng = np.random.default_rng(21)
    m, n = 16, 40
    fn = rng.uniform(0.5, 2.0, n).astype(np.float32)
    bound = rng.uniform(-1.5, -0.5, m).astype(np.float32)
    t = screen_threshold(fn, bound)
    top = int(t.argmax())
    g = (t.max() + rng.uniform(0.5, 3.0, (m, n))).astype(np.float32)
    g[top, 7] = {-1: np.nextafter(t.max(), -np.inf), 0: t.max(), 1: np.nextafter(t.max(), np.inf)}[step]
    calls = {"skipped": 0, "compared": 0}
    with screen_spy(calls):
        flat, vals = matching._screen(product(g), fn, bound)
    compare_keeps = np.flatnonzero(~(g >= t[:, None]))
    assert (len(compare_keeps) == 0) == skipped
    assert calls == {"skipped": int(skipped), "compared": int(not skipped)}
    want = compare_keeps[~(g.ravel()[compare_keeps] + fn[compare_keeps % n] >= bound[compare_keeps // n])]
    assert np.array_equal(flat, want)


def test_a_chunk_holding_a_nan_is_never_skipped():
    # every entry but the NaN is far above every row's t
    rng = np.random.default_rng(22)
    m, n = 8, 20
    fn = rng.uniform(0.5, 2.0, n).astype(np.float32)
    bound = rng.uniform(-1.5, -0.5, m).astype(np.float32)
    t = screen_threshold(fn, bound)
    for at in (0, 77, m * n - 1):
        g = np.full((m, n), t.max() + 10.0, dtype=np.float32)
        g.ravel()[at] = np.nan
        calls = {"skipped": 0, "compared": 0}
        with screen_spy(calls), np.errstate(invalid="ignore"):
            flat, vals = matching._screen(product(g), fn, bound)
        assert calls == {"skipped": 0, "compared": 1}
        assert flat.tolist() == [at] and np.isnan(vals).all()


@pytest.mark.parametrize("n", [1, 2, 17, 990])
@pytest.mark.parametrize("m", [1, 3, 64, 200])
@pytest.mark.parametrize("where", ["scattered", "first", "last", "nan_first", "nan_last"])
def test_screen_equals_the_full_compare_and_compares_only_its_span(m, n, where):
    # every entry well above every row's t but the planted ones: entries
    # far below the bound, and entries at bound - |f|^2 rounded either way,
    # which the exact test decides. The compared span runs from the first
    # planted column of E (a row of the product) to the last, a NaN's
    # column included
    rng = np.random.default_rng(m * 1000 + n)
    fn = rng.uniform(0.5, 2.0, n).astype(np.float32)
    bound = rng.uniform(-1.5, -0.5, m).astype(np.float32)
    t = screen_threshold(fn, bound)
    g = (t.max() + rng.uniform(0.5, 3.0, (m, n))).astype(np.float32)
    middle = np.arange(n // 4, max(n // 4 + 1, 3 * n // 4))
    cols = {"scattered": rng.choice(n, min(n, 5), replace=False), "first": [0], "last": [n - 1]}.get(where, middle)
    rows = rng.integers(0, m, (len(cols), 2))
    for c, (edge, low) in zip(cols, rows):
        g[edge, c] = np.nextafter(bound[edge] - fn[c], rng.choice([-np.inf, np.inf]))
        g[low, c] = bound[low] - fn[c] - 1.0
    planted = list(cols)
    if where.startswith("nan"):
        c = 0 if where == "nan_first" else n - 1
        g[rng.integers(0, m), c] = np.nan
        planted.append(c)
    a, b = min(planted), max(planted) + 1
    with np.errstate(invalid="ignore"):
        with mock.patch.object(np, "greater_equal", wraps=np.greater_equal) as ge:
            flat, vals = _screen(product(g), fn, bound)
        e = g + fn
        want = np.flatnonzero(~(e >= bound[:, None]))
    assert ge.call_count == 1 and ge.call_args.args[0].shape == (b - a, m)
    assert flat.dtype == np.intp and np.array_equal(flat, want)
    assert vals.dtype == np.float32 and np.array_equal(vals.view(np.uint32), e.ravel()[want].view(np.uint32))
    assert set(cols) <= set((want % n).tolist()) and np.isnan(vals).any() == where.startswith("nan")


@pytest.mark.parametrize("tau2", [-0.5, 1.0])
def test_extreme_tau2_scans_equal_the_oracle(tau2):
    # a sliding-window drive in chunks of a few frames: at tau2 = 1 the min
    # test skips chunks, at tau2 = -0.5 every entry is screened in and none is
    rng = np.random.default_rng(23)
    pool = unit_rows(rng, 400).astype(np.float32)
    block = DescriptorSet(pool)
    starts = np.arange(0, 361, 8)
    frames = columns(block, starts, starts + 40)
    query = DescriptorSet(np.vstack([pool[200:230] + rng.standard_normal((30, DESCRIPTOR_DIM)) * 0.01, unit_rows(rng, 4), pool[203:204]]))
    cfg = MatchConfig(tau1=0.9, tau2=tau2)
    calls = {"skipped": 0, "compared": 0}
    with mock.patch.object(matching, "_E_BYTES", chunk_bytes(60, len(query))), screen_spy(calls):
        got = matches(query, frames, cfg)
        want = oracle_matches(query, frames, cfg)
    assert np.array_equal(got, want)
    if tau2 < 0:
        assert calls == {"skipped": 0, "compared": 16}
        assert (got >= 0).sum() > 0
    else:
        # of the 16 chunks of three frames, the min test passes on exactly
        # those holding a row the query copies (200-229) and skips the rest
        held = [any(200 < s + 40 and s < 230 for s in starts[lo : lo + len(first)]) for lo, _, _, first, _ in _candidate_rows(*frames, 60)]
        assert calls == {"skipped": held.count(False), "compared": held.count(True)} and calls["skipped"] > 0, calls


def rows_about_the_gate(rng, g, tau2, count, radius):
    """count rows at cosines within radius below tau2 (or above, up to 1) to g, each tail parallel to g's.

    Each row is r (c g/|g| + sqrt(1 - c^2) e) for a unit e in the _HEAD
    components orthogonal to g's, so its components after _HEAD are g's
    times a positive factor: there Cauchy-Schwarz, which the bound product
    takes for them, holds with equality, and only its rounding slack is
    left between the bound product and the product.
    """
    head = matching._HEAD
    e = rng.standard_normal(DESCRIPTOR_DIM)
    e[head:] = 0.0
    e[:head] -= e[:head] @ g[:head] / (g[:head] @ g[:head]) * g[:head]
    e /= np.linalg.norm(e)
    c = np.minimum(tau2 + rng.uniform(-radius, radius, count), 1.0)
    r = rng.uniform(1.5, 2.0, count) * np.linalg.norm(g)
    return (r[:, None] * (c[:, None] * g / np.linalg.norm(g) + np.sqrt(1.0 - c * c)[:, None] * e)).astype(np.float32)


def admits(row, query, tau2):
    """Whether the bound product admits the one row of a chunk of it alone, the gate's bound made for that row's norm."""
    fn = DescriptorSet(row[None]).norms
    bound = _gate_bound(query.norms.astype(np.float64), fn[0], fn[0], tau2)
    s = matching._slack_t(matching._screen_t(bound, fn[0]), float(fn[0]), query.norms.astype(np.float64))
    return matching._admitted_rows(row[None], fn, query.array * np.float32(-2.0), query.norms, s) is not None


@pytest.mark.parametrize("tau2", [0.5, 0.97, 1.0])
@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e15])
def test_the_bound_product_admits_every_row_holding_an_entry_below_the_bound(scale, tau2):
    # rows whose E to one of two query rows lies exactly at, or one float32
    # step under, the bound, each tail parallel to that query row's, beside
    # a query row of zero norm; each row is a chunk of its own, with the
    # bound of its own norm, the tightest a chunk gets. Every row holding an
    # entry below the bound is admitted, and rows at cosines 0.01 under the
    # gate's are not: the bound product is exact, and close
    rng = np.random.default_rng(32)
    g = unit_rows(rng, 2) * scale
    query = DescriptorSet(np.vstack([g, np.zeros(DESCRIPTOR_DIM)]))
    qq = query.norms.astype(np.float64)
    edges = {"at": 0, "under": 0}
    try:
        for j in range(2):
            rows = rows_about_the_gate(rng, query.array[j].astype(np.float64), tau2, 4000, 3e-6)
            fn = DescriptorSet(rows).norms
            with np.errstate(over="ignore"):
                e = matching._product(rows, query.array * np.float32(-2.0)) + fn[:, None]
            for i in range(len(rows)):
                bound = _gate_bound(qq, fn[i], fn[i], tau2)
                at = e[i, j] == bound[j]
                under = e[i, j] == np.nextafter(bound[j], np.float32(-np.inf))
                edges["at"] += at
                edges["under"] += under
                if at or under:
                    assert (e[i] < bound).any() == under
                    assert not under or admits(rows[i], query, tau2), (j, i)
            assert not any(admits(row, query, tau2) for row in rows_about_the_gate(rng, query.array[j].astype(np.float64), tau2 - 0.01, 20, 1e-3))
    finally:
        matching._scratch.product = None
    assert edges["at"] > 0 and edges["under"] > 0, edges


def test_a_zero_query_row_screens_nothing(monkeypatch):
    # a query keypoint of zero norm never passes the cosine gate's |g| > 0,
    # so its bound admits no entry: it forms no (row, frame) pair, where a
    # bound above every entry would pair it with every frame, and the
    # counts are those of the query without it
    rng = np.random.default_rng(27)
    pool = unit_rows(rng, 400).astype(np.float32)
    starts = np.arange(0, 361, 8)
    frames = columns(DescriptorSet(pool), starts, starts + 40)
    rows = np.vstack([pool[200:230] + rng.standard_normal((30, DESCRIPTOR_DIM)) * 0.01, unit_rows(rng, 4)])
    query = DescriptorSet(np.insert(rows, 7, 0.0, axis=0))
    assert _gate_bound(query.norms.astype(np.float64), 0.5, 2.0, 0.97)[7] == -np.inf
    monkeypatch.setattr(matching, "_held_pairs", lambda *a: pytest.fail("a pair was formed"))
    counts = _counts(query, *frames, MatchConfig())
    assert counts.sum() > 0 and np.array_equal(counts, _counts(DescriptorSet(rows), *frames, MatchConfig()))


# (query rows, frame rows) whose sliced product differs from q @ rows.T in
# the last bits on OpenBLAS 0.3.31 (SkylakeX kernel, the data drawn below):
# one- and two-row queries, whose products take other kernels than wider ones
ORIENTATION_DIFFERS = {(1, 2047), (1, 2049), (1, 5242), (2, 1025)}

# (query rows, span rows, first row) whose product over a span of a chunk's
# rows differs from those rows of the whole chunk's product on OpenBLAS
# 0.3.31 (SkylakeX kernel, the data drawn below): none, for spans of at
# least _MIN_SPAN rows and queries of at least 16 rows
SPAN_DIFFERS = set()


def test_sliced_product_equals_the_query_major_product_bit_for_bit():
    # _product multiplies frame rows by the query in slices of at most
    # _BLAS_ROWS rows; the counts are bit for bit those of one q @ rows.T
    # only where the two orientations agree, and those of a scan that
    # multiplies only the rows its bound product admits only where a span's
    # product has the whole chunk's bits, so a BLAS on which either fails
    # fails here first, naming the shapes
    big = matching._BLAS_ROWS
    rng = np.random.default_rng(25)
    differs, span_differs = set(), set()
    try:
        for m in [*range(1, 13), 64, 200]:
            for n in (big - 1, big, big + 1, 2 * big - 1, 2 * big + 1, 5242, 8192):
                q = rng.standard_normal((m, DESCRIPTOR_DIM)).astype(np.float32)
                rows = rng.standard_normal((n, DESCRIPTOR_DIM)).astype(np.float32)
                p, want = matching._product(rows, q), q @ rows.T
                assert p.shape == (n, m) and p.flags.c_contiguous
                if not np.array_equal(p.T, want):
                    differs.add((m, n))
                    np.testing.assert_allclose(p.T, want, rtol=0.0, atol=1e-4)  # rounding only
        n = 5242
        for m in (16, 64, 200, 500):
            q = rng.standard_normal((m, DESCRIPTOR_DIM)).astype(np.float32)
            rows = rng.standard_normal((n, DESCRIPTOR_DIM)).astype(np.float32)
            whole = matching._product(rows, q).copy()
            for span in (matching._MIN_SPAN, 129, 200, big - 1, big + 1, 2 * big + 1):
                for a in sorted({0, 1, 17, big - 3, n // 2, n - span}):
                    p = matching._product(rows, q, a, a + span)
                    if not np.array_equal(p[a : a + span], whole[a : a + span]):
                        span_differs.add((m, span, a))
    finally:
        matching._scratch.product = None  # no larger buffer than a scan's is left behind
    assert differs <= ORIENTATION_DIFFERS, sorted(differs - ORIENTATION_DIFFERS)
    assert span_differs <= SPAN_DIFFERS, sorted(span_differs - SPAN_DIFFERS)


def test_bound_covers_the_norms_of_every_chunk(monkeypatch):
    # one frame per chunk: a first chunk of norms near 0.97, where the
    # gate's threshold |f|^2 - 2 tau2 |g||f| is least, then a frame of
    # norm 0.1 and one of norm 3, each holding a twin of the query row.
    # A bound made for the first chunk's norms alone would screen both out
    rng = np.random.default_rng(24)
    g = unit_rows(rng, 1)[0]
    twin = g + 0.14 * unit_rows(rng, 1)[0]  # cosine to g about 0.99
    twin /= np.linalg.norm(twin)
    far = unit_rows(rng, 1)[0]
    frames = [DescriptorSet(unit_rows(rng, 2) * 0.97) for _ in range(3)]
    frames += [DescriptorSet(np.stack([twin, -g]) * 0.1), DescriptorSet(np.stack([twin, far]) * 3.0)]
    cfg = MatchConfig(tau1=0.95, tau2=0.97)
    query = DescriptorSet(g.reshape(1, -1))
    monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(2, len(query)))
    assert len(list(_candidate_rows(*packed(frames), 2))) == len(frames)
    got = matches(query, packed(frames), cfg)
    assert got[0].tolist() == [-1, -1, -1, 0, 0]
    assert np.array_equal(got, oracle_matches(query, packed(frames), cfg))


def test_each_chunk_gets_the_bound_of_its_own_norms(monkeypatch):
    # two chunks of one frame each, the second's norms inside the first's
    # range: each chunk's bound is made from its own rows' least and
    # greatest norm, nothing being carried over from the chunk before
    rng = np.random.default_rng(28)
    g = unit_rows(rng, 1)[0]
    twin = g + 0.14 * unit_rows(rng, 1)[0]
    twin /= np.linalg.norm(twin)
    frames = [DescriptorSet(np.stack([twin * 0.2, -g * 3.0])), DescriptorSet(np.stack([twin * 0.9, -g * 1.1]))]
    query, cfg = DescriptorSet(g.reshape(1, -1)), MatchConfig(tau1=0.95, tau2=0.97)
    monkeypatch.setattr(matching, "_E_BYTES", chunk_bytes(2, len(query)))
    made = []

    def spy(qq, fmin, fmax, tau2):
        made.append((float(fmin), float(fmax)))
        return _gate_bound(qq, fmin, fmax, tau2)

    monkeypatch.setattr(matching, "_gate_bound", spy)
    got = matches(query, packed(frames), cfg)
    norms = [ds.norms for ds in frames]
    assert made == [(float(n.min()), float(n.max())) for n in norms]
    assert made[1][0] > made[0][0] and made[1][1] < made[0][1]
    assert got[0].tolist() == [0, 0]
    assert np.array_equal(got, oracle_matches(query, packed(frames), cfg))


def test_an_empty_query_is_matched_by_no_product(monkeypatch):
    rng = np.random.default_rng(29)
    block, starts, stops = columns(DescriptorSet(unit_rows(rng, 12)), [0, 4, 8], [4, 8, 12])
    monkeypatch.setattr(matching, "_product", lambda *a: pytest.fail("an empty query was multiplied"))
    counts = _counts(DescriptorSet.empty(), block, starts, stops, MatchConfig())
    assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 0]
    assert list(_matched(DescriptorSet.empty(), block, starts, stops, MatchConfig())) == []
    ids = np.array([7, 3, 5], dtype=np.uint64)
    assert best_match(DescriptorSet.empty(), _Candidates(ids, block, starts, stops), MatchConfig()) == (3, 0)


@pytest.mark.parametrize("m", [1, 3, 64, 127, 128, 200, 2000])
def test_a_chunk_is_bounded_by_its_product_alone(m, monkeypatch):
    # a chunk's rows are read in place, so its float32 product, frame rows
    # by query rows, is the only array it allocates and its only budget,
    # for queries of fewer rows than a descriptor has components as for
    # those of more
    rng = np.random.default_rng(31)
    frames = columns(DescriptorSet(unit_rows(rng, 8)), [0, 4], [4, 8])
    widths = []
    candidate_rows = matching._candidate_rows

    def spy(block, starts, stops, max_cols):
        widths.append(max_cols)
        return candidate_rows(block, starts, stops, max_cols)

    monkeypatch.setattr(matching, "_candidate_rows", spy)
    _counts(DescriptorSet(unit_rows(rng, m)), *frames, MatchConfig())
    assert widths == [max(1, matching._E_BYTES // (4 * m))]


def two_row_frame(cos0, second):
    """A query row g and a frame of a row at cosine cos0 to g and the given second row, all unit length."""
    g = vec(1.0)
    return DescriptorSet(g.reshape(1, -1)), DescriptorSet(np.stack([vec(cos0, np.sqrt(1.0 - cos0 * cos0)), second]))


@pytest.mark.parametrize(
    "cos0, second, settled, rows_read, want",
    [
        # one screened entry, d1 = 0.02 and the bound's d2 >= 0.06: the
        # ratio 1/3 passes, and the lone-entry pass settles it without
        # reading the frame
        (0.99, vec(0.0, 0.0, 1.0), 1, 0, 0),
        # one screened entry, d1 = 0.05 against the bound's 0.06 cannot
        # decide; the frame's whole row gives d2 = 2, ratio 0.025
        (0.975, vec(0.0, 0.0, 1.0), 0, 1, 0),
        # two screened entries at the same distance, neither lone: the
        # frame's whole row gives ratio 1, no match
        (0.99, vec(0.99, np.sqrt(1.0 - 0.99 * 0.99)), 0, 1, -1),
    ],
    ids=["bound-decides", "bound-undecided", "two-screened"],
)
def test_each_ratio_test_branch(cos0, second, settled, rows_read, want, monkeypatch):
    query, frame = two_row_frame(cos0, second)
    calls = {"settled": 0, "left": 0, "rows": 0}
    top_two = matching._top_two
    monkeypatch.setattr(matching, "_top_two", lambda *a: calls.update(rows=calls["rows"] + len(a[2])) or top_two(*a))
    cfg = MatchConfig(tau1=0.8, tau2=0.97)
    with lone_spy(calls):
        got = matches(query, packed([frame]), cfg)
    assert got[0, 0] == want == oracle_matches(query, packed([frame]), cfg)[0, 0]
    assert calls["settled"] == settled and calls["rows"] == rows_read
