import numpy as np
import pytest

from vloc import matching
from vloc.errors import EmptyCandidatesError, FrameTooSmallError
from vloc.matching import (
    DESCRIPTOR_DIM,
    DescriptorSet,
    MatchConfig,
    _cosine_gate,
    _candidate_rows,
    _gate_bound,
    _matches,
    _segment_counts,
    _windows_holding,
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


def test_match_keypoint_accepts_exact_twin():
    rng = np.random.default_rng(2)
    frame_arr = unit_rows(rng, 10)
    frame = DescriptorSet(frame_arr)
    g = frame_arr[3]
    assert _matches(one_row(g), [frame], MatchConfig())[0, 0] == 3


def test_match_keypoint_cosine_gate():
    # both rows far apart so the ratio test passes toward row 0,
    # but cos(g, row0) = 0.96 < 0.97 blocks the match
    frame = DescriptorSet(np.stack([vec(4.0, 3.0), vec(0.0, 0.0, 50.0)]))
    g = vec(3.0, 4.0)
    assert count_correspondences(one_row(g), frame, MatchConfig()) == 0
    assert _matches(one_row(g), [frame], MatchConfig(tau2=0.95))[0, 0] == 0


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

    fid, count = best_match(query, [(7, partial), (3, full)], MatchConfig())
    assert fid == 3
    assert count == 12

    # identical frames: the lower id wins the tie
    fid, _ = best_match(query, [(9, full), (2, full)], MatchConfig())
    assert fid == 2


def test_best_match_skips_tiny_frames():
    rng = np.random.default_rng(7)
    tiny = DescriptorSet(unit_rows(rng, 1))
    fid, count = best_match(DescriptorSet(unit_rows(rng, 3)), [(1, tiny)], MatchConfig())
    assert (fid, count) == (1, 0)


def test_best_match_rejects_empty_candidates():
    rng = np.random.default_rng(8)
    with pytest.raises(EmptyCandidatesError):
        best_match(DescriptorSet(unit_rows(rng, 3)), [], MatchConfig())


def test_best_match_order_independent():
    rng = np.random.default_rng(9)
    frames = [(i, DescriptorSet(unit_rows(rng, int(rng.integers(2, 15))))) for i in range(8)]
    query = DescriptorSet(frames[5][1].array + rng.standard_normal((len(frames[5][1]), DESCRIPTOR_DIM)).astype(np.float32) * np.float32(0.01))
    forward = best_match(query, frames, MatchConfig())
    backward = best_match(query, list(reversed(frames)), MatchConfig())
    assert forward == backward


def test_ragged_and_uniform_batches_agree():
    # same candidate set padded to uniform size must yield identical counts
    rng = np.random.default_rng(10)
    base = unit_rows(rng, 20)
    query = DescriptorSet(base + rng.standard_normal(base.shape) * 0.01)
    uniform = [(i, DescriptorSet(np.vstack([base[i : i + 10], unit_rows(rng, 10)]))) for i in range(4)]
    ragged = uniform + [(99, DescriptorSet(unit_rows(rng, 7)))]
    u_fid, u_count = best_match(query, uniform, MatchConfig())
    r_fid, r_count = best_match(query, ragged, MatchConfig())
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
    rng = np.random.default_rng(13)
    block = DescriptorSet(unit_rows(rng, 30) * rng.uniform(0.5, 2.0, (30, 1)))
    inner = block._window(5, 25)._window(3, 10)
    assert np.shares_memory(inner.array, block.array)
    assert np.array_equal(inner.array, block.array[8:15])
    assert np.array_equal(inner.norms, np.einsum("ij,ij->i", block.array[8:15], block.array[8:15]))
    with pytest.raises(ValueError):
        block._window(20, 31)
    with pytest.raises(ValueError):
        block._window(4, 3)


@pytest.mark.parametrize("chunk_cols", [None, 60, 200, 1])
@pytest.mark.parametrize("tau1, tau2", [(0.8, 0.97), (0.95, 0.5), (0.9, 1.0), (0.95, -0.5)])
def test_windows_of_one_block_score_like_independent_copies(tau1, tau2, chunk_cols, monkeypatch):
    # sliding overlapping windows (steps that do and do not divide the
    # width), an exclusion-style gap, a second block, a standalone set,
    # unequal widths and descending runs, apart and overlapping, all in one
    # scan, over descriptors of uneven norms; scored in one chunk, or in
    # chunks of at most chunk_cols candidate rows
    rng = np.random.default_rng(14)
    cfg = MatchConfig(tau1=tau1, tau2=tau2)
    pool = unit_rows(rng, 400) * rng.uniform(0.3, 3.0, (400, 1))
    block = DescriptorSet(pool)
    other = DescriptorSet(unit_rows(rng, 60))
    query = DescriptorSet(
        np.vstack([pool[100:140] + rng.standard_normal((40, DESCRIPTOR_DIM)) * 0.01, unit_rows(rng, 5), np.zeros((1, DESCRIPTOR_DIM))])
    )
    windows = (
        [block._window(s, s + 50) for s in range(0, 120, 10)]
        + [block._window(s, s + 50) for s in range(220, 330, 7)]
        + [other._window(0, 30), other._window(30, 60), DescriptorSet(unit_rows(rng, 9))]
        + [block._window(s, s + 35) for s in (300, 200, 100)]
        + [block._window(s, s + 40) for s in (160, 150, 140)]
        + [block._window(s, s + 3) for s in range(95, 140)]
    )
    copies = [DescriptorSet(w.array) for w in windows]
    whole = _segment_counts(query, windows, cfg)
    if chunk_cols is not None:
        # the query has fewer rows than a descriptor, so a chunk's
        # concatenated rows, not its E, bind the budget
        monkeypatch.setattr(matching, "_E_BYTES", chunk_cols * DESCRIPTOR_DIM * 4)
        chunks = [
            (lo, lo + len(widths), np.shares_memory(rows, block.array) or np.shares_memory(rows, other.array))
            for lo, rows, _, _, widths in _candidate_rows(windows, chunk_cols)
        ]
        assert [lo for lo, _, _ in chunks] == [0] + [hi for _, hi, _ in chunks[:-1]]
        if chunk_cols == 1:
            assert [hi - lo for lo, hi, _ in chunks] == [1] * len(windows)
        elif chunk_cols == 60:
            # the first run of windows splits after its second window, in place
            assert chunks[0] == (0, 2, True)
        else:
            # several runs concatenated into one chunk
            assert any(hi - lo > 1 and not in_place for lo, hi, in_place in chunks)
    got = _segment_counts(query, windows, cfg)
    assert got.tolist() == whole.tolist()
    assert got.tolist() == _segment_counts(query, copies, cfg).tolist()
    assert (got.sum() > 0) == (tau2 < 1.0)  # clipped cosines never exceed 1
    for i in (0, 9, 10, 27, 30, 33, 40):
        assert got[i] == naive_count(query.array.astype(np.float64), windows[i].array.astype(np.float64), cfg.tau1, cfg.tau2)
    ids = list(range(len(windows)))
    assert best_match(query, list(zip(ids, windows)), cfg) == best_match(query, list(zip(ids, copies)), cfg)


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
    passes = _cosine_gate(qq, e, fn, cfg)
    assert passes.any() and not passes.all()
    bound = _gate_bound(qq, fmin, fmax, tau2)
    assert bound.dtype == np.float32
    assert np.all(e[passes] < bound[passes])


def test_windows_holding_matches_brute_force():
    rng = np.random.default_rng(16)
    for trial in range(80):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 50))
        starts = rng.integers(0, n, int(rng.integers(1, 15)))  # unsorted, repeats allowed
        if trial % 2:
            # equal widths, as frames of one drive have
            stops = np.minimum(starts + int(rng.integers(1, 12)), n)
            stops = starts + (stops - starts).min()
        else:
            # nested and empty windows of uneven widths
            stops = np.minimum(starts + rng.integers(0, 12, len(starts)), n)
        r = rng.integers(0, m, 30)
        c = rng.integers(0, n, 30)
        want = {(i, s) for i, j in zip(r, c) for s, (lo, hi) in enumerate(zip(starts, stops)) if lo <= j < hi}
        got = set(zip(*(a.tolist() for a in _windows_holding(r, c, starts, stops, m))))
        assert want <= got
        # no extra pair unless windows nest
        nest = any(a <= b and e < d for a, d in zip(starts, stops) for b, e in zip(starts, stops))
        assert got == want or nest
