"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them all) and
asserts the same condition, so the printed report and the pytest verdict
cannot drift apart.
"""

import math
import time

import numpy as np
import pytest

from candidates import as_candidates
from vloc.cli import main
from vloc.database import Database, GeoFrame, ScanConfig, ingest_kitti, load_db, save_db, scan, write_desc_file
from vloc.geodesy import M_PER_DEG as SPHERE_M_PER_DEG, GeoPoint, haversine_m, to_plane
from vloc.kalman import FilterConfig, init_filter, step, update
from vloc.matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig, best_match, count_correspondences
from vloc.synthworld import WorldConfig, gen_world, run_monte_carlo

M_PER_DEG = 111_320.0


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


# --- criterion 1: batch matcher vs naive reference ---


def _naive_count(query: np.ndarray, frame: np.ndarray, tau1: float, tau2: float) -> int:
    """Float64 per-keypoint reference, no shared-buffer tricks."""
    count = 0
    for g in query:
        d = ((frame - g) ** 2).sum(axis=1)
        order = np.argsort(d, kind="stable")
        j1, j2 = int(order[0]), int(order[1])
        if d[j2] <= 0.0 or d[j1] / d[j2] >= tau1 * tau1:
            continue
        f1 = frame[j1]
        denom = math.sqrt(float(np.dot(g, g))) * math.sqrt(float(np.dot(f1, f1)))
        if denom <= 0.0 or float(np.dot(g, f1)) / denom <= tau2:
            continue
        count += 1
    return count


def _naive_best(query, candidates, tau1, tau2):
    best_id, best_n = None, -1
    for fid, frame in candidates:
        n = _naive_count(query, frame, tau1, tau2) if len(frame) >= 2 else 0
        if n > best_n or (n == best_n and fid < best_id):
            best_id, best_n = fid, n
    return best_id, best_n


def test_criterion_01_matching_oracle_equivalence():
    rng = np.random.default_rng(1001)
    cfg = MatchConfig()
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        n_frames = int(rng.integers(2, 21))
        m = int(rng.integers(1, 51))
        q = rng.standard_normal((m, DESCRIPTOR_DIM))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        candidates = []
        arrays = []
        ids = rng.permutation(1000)[:n_frames]
        for fid in ids:
            k = int(rng.integers(2, 51))
            f = rng.standard_normal((k, DESCRIPTOR_DIM))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            # drop noisy twins of a few query rows into this frame
            for qi in range(0, m, 7):
                f[int(rng.integers(0, k))] = q[qi] + rng.standard_normal(DESCRIPTOR_DIM) * 0.01
            f32 = f.astype(np.float32)
            candidates.append((int(fid), DescriptorSet(f32)))
            arrays.append((int(fid), f32.astype(np.float64)))
        got = best_match(DescriptorSet(q), as_candidates(candidates), cfg)
        want = _naive_best(q.astype(np.float32).astype(np.float64), arrays, cfg.tau1, cfg.tau2)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    assert report(
        1,
        "best_match equals naive double-loop reference on 100 instances",
        ok,
        f"{mismatches} mismatches, {elapsed:.2f} s",
    )


def test_criterion_02_self_match():
    rng = np.random.default_rng(1002)
    cfg = MatchConfig(tau1=0.8, tau2=0.97)
    bad = 0
    for _ in range(50):
        k = int(rng.integers(2, 101))
        a = rng.standard_normal((k, DESCRIPTOR_DIM))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        ds = DescriptorSet(a)
        if count_correspondences(ds, ds, cfg) != k:
            bad += 1
    assert report(2, "count_correspondences(A, A) = k for 50 random sets", bad == 0, f"{bad} failures")


def test_criterion_03_geodesy():
    rng = np.random.default_rng(1003)
    worst_rel = 0.0
    for _ in range(1000):
        lat = float(rng.uniform(-60.0, 60.0))
        lon = float(rng.uniform(-179.0, 179.0))
        bearing = float(rng.uniform(0, 2 * math.pi))
        dist = float(rng.uniform(1.0, 4999.0))
        a = GeoPoint(lat, lon)
        b = GeoPoint(
            lat + dist * math.cos(bearing) / M_PER_DEG,
            lon + dist * math.sin(bearing) / (M_PER_DEG * math.cos(math.radians(lat))),
        )
        h = haversine_m(a, b)
        e = math.hypot(*to_plane(a, b.lat, b.lon))
        worst_rel = max(worst_rel, abs(h - e) / h)
    ok = worst_rel < 0.002

    axiom_violations = 0
    for _ in range(1000):
        pts = [
            GeoPoint(float(rng.uniform(-85.0, 85.0)), float(rng.uniform(-180.0, 180.0)))
            for _ in range(3)
        ]
        ab = haversine_m(pts[0], pts[1])
        if ab != haversine_m(pts[1], pts[0]):
            axiom_violations += 1
        if haversine_m(pts[0], pts[0]) != 0.0:
            axiom_violations += 1
        if haversine_m(pts[0], pts[2]) > ab + haversine_m(pts[1], pts[2]) + 1e-6:
            axiom_violations += 1
    ok = ok and axiom_violations == 0
    assert report(
        3,
        "haversine within 0.2% of equirectangular under 5 km; metric axioms hold",
        ok,
        f"worst rel {worst_rel:.2e}, {axiom_violations} axiom violations",
    )


def test_criterion_04_first_step_tracks_measurement():
    # 1e-4 deg, 1000 deg^2 and 1e-10 deg^2 per 1 s step in meters
    cfg = FilterConfig(sigma_r=11.12, p0_scale=1.24e13, q=1.24)
    z = GeoPoint(49.0123, 8.0456)

    # pipeline path: filter initialized on the measurement itself
    exact = update(init_filter(z, cfg), z, cfg)
    d_exact = max(abs(exact.position().lat - z.lat), abs(exact.position().lon - z.lon))

    # prior 100 m away: the diffuse covariance still pulls the posterior
    # onto the first measurement
    away = init_filter(GeoPoint(z.lat + 100.0 / M_PER_DEG, z.lon), cfg)
    post = update(away, z, cfg)
    d_away = max(abs(post.position().lat - z.lat), abs(post.position().lon - z.lon))

    ok = d_exact == 0.0 and d_away < 1e-6
    assert report(
        4,
        "first posterior within 1e-6 deg of first measurement",
        ok,
        f"exact-init dev {d_exact:.1e}, far-init dev {d_away:.1e} deg",
    )


def test_criterion_05_covariance_health():
    rng = np.random.default_rng(1005)
    worst_asym = 0.0
    worst_eig = 0.0
    steps_done = 0
    for _ in range(50):
        dt = float(rng.uniform(0.1, 2.0))
        # degree-valued draws, converted to meters
        cfg = FilterConfig(
            sigma_r=float(10.0 ** rng.uniform(-5, -2)) * SPHERE_M_PER_DEG,
            p0_scale=float(10.0 ** rng.uniform(0, 4)) * SPHERE_M_PER_DEG**2,
            q=float(10.0 ** rng.uniform(-12, -6)) * SPHERE_M_PER_DEG**2,
        )
        lat, lon = 49.0, 8.0
        st = init_filter(GeoPoint(lat, lon), cfg)
        for _ in range(200):
            lat += float(rng.normal(0.0, 1e-4))
            lon += float(rng.normal(0.0, 1e-4))
            st = step(st, GeoPoint(lat, lon), dt, cfg)
            p = np.array([[st.p_pp, st.p_pv], [st.p_pv, st.p_vv]])
            worst_asym = max(worst_asym, float(np.abs(p - p.T).max()))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(p).min()))
            steps_done += 1
    ok = steps_done == 10_000 and worst_asym <= 1e-9 and worst_eig >= -1e-9
    assert report(
        5,
        "covariance symmetric and PSD across 10000 random steps",
        ok,
        f"max asymmetry {worst_asym:.1e}, min eigenvalue {worst_eig:.1e}",
    )


def _latest_fix_factor(n: int) -> float:
    """r_n: error factor of the best constant-velocity estimate of the latest fix.

    Given n equally spaced position fixes with independent zero-mean errors
    of RMS sigma, the least-squares line through them estimates the latest
    position with RMS error r_n * sigma, r_n being the norm of the hat
    matrix's last row. By Gauss-Markov no linear unbiased estimator of that
    position does better, so a constant-velocity filter can at best reach it.
    """
    t = np.arange(n, dtype=np.float64)
    design = np.column_stack([np.ones(n), t])
    hat = design @ np.linalg.pinv(design)
    return float(np.linalg.norm(hat[-1]))


def test_criterion_06_monte_carlo_error_decay():
    # The 1 s exclusion leaves as nearest admissible match a frame 1.1 s
    # from the query, so every measurement is 1.1 s of travel (19.80 m at
    # 18 m/s) off, behind or ahead. The filter cannot undo that offset; it
    # can average it down as the best constant-velocity fit would, so (c)
    # holds its error to r_n times the measurement error from step 3 on.
    # Means are compared: count ties resolve to the lower frame id, so the
    # frame behind wins a little more often than the one ahead, and that
    # bias in the errors would count against the filter in an RMS.
    steps = 6
    t0 = time.perf_counter()
    stats = run_monte_carlo(
        WorldConfig(seed=0),
        ScanConfig(window_s=20.0, exclusion_s=1.0),
        MatchConfig(),
        FilterConfig(),
        trials=1000,
        steps=steps,
        period_s=1.0,
    )
    elapsed = time.perf_counter() - t0

    meas = stats.mean_meas_m
    est = stats.mean_est_m
    ok_a = bool(np.all((meas >= 10.0) & (meas <= 30.0)))
    ok_b = bool(np.all(np.diff(est[2:]) <= 0.0))
    ratios = [(n, est[n - 1] / meas[n - 1], _latest_fix_factor(n)) for n in range(3, steps + 1)]
    ok_c = all(est[n - 1] <= r_n * meas[n - 1] for n, _, r_n in ratios)
    ok_t = elapsed < 60.0
    ok = ok_a and ok_b and ok_c and ok_t
    verdict = {True: "PASS", False: "FAIL"}
    detail = (
        f"meas {np.round(meas, 2).tolist()}, est {np.round(est, 2).tolist()}, "
        f"a={verdict[ok_a]} b={verdict[ok_b]} c={verdict[ok_c]} "
        f"(est/meas vs r_n: {', '.join(f'{n}: {q:.3f}/{r_n:.3f}' for n, q, r_n in ratios)}) "
        f"t={verdict[ok_t]} ({elapsed:.1f} s, bound 60 s)"
    )
    assert report(6, "1000-trial error decay", ok, detail)


def test_criterion_07_reversal_overshoot_then_convergence():
    # constructed along-track measurement errors, in meters; the second
    # measurement steps backwards while the vehicle keeps moving forward
    offsets = [36.0, -2.0, 1.0, -1.0, 1.0, -1.0, 1.0, -30.0]
    v = 18.0
    # 1e-4 deg, 5e-9 deg^2 and 1e-9 deg^2 per 1 s step in meters
    cfg = FilterConfig(sigma_r=11.12, p0_scale=61.8, q=12.4)

    truth = [GeoPoint(49.0 + v * i / M_PER_DEG, 8.0) for i in range(len(offsets))]
    zs = [GeoPoint(truth[i].lat + off / M_PER_DEG, 8.0) for i, off in enumerate(offsets)]
    # measured track steps backward at step 2 while the vehicle advances
    assert zs[1].lat < zs[0].lat and truth[1].lat > truth[0].lat

    st = update(init_filter(zs[0], cfg), zs[0], cfg)
    meas_err = [haversine_m(zs[0], truth[0])]
    est_err = [haversine_m(st.position(), truth[0])]
    for i in range(1, len(offsets)):
        st = step(st, zs[i], 1.0, cfg)
        meas_err.append(haversine_m(zs[i], truth[i]))
        est_err.append(haversine_m(st.position(), truth[i]))

    ok = est_err[1] > meas_err[1] and est_err[-1] < meas_err[-1]
    assert report(
        7,
        "reversal: estimate overshoots at step 2, beats measurement at the end",
        ok,
        f"step2 est {est_err[1]:.2f} vs meas {meas_err[1]:.2f}; "
        f"final est {est_err[-1]:.2f} vs meas {meas_err[-1]:.2f} m",
    )


def test_criterion_08_format_round_trip(tmp_path):
    rng = np.random.default_rng(1008)
    bad = 0
    for i in range(50):
        frames = []
        for fid in range(int(rng.integers(0, 7))):
            k = int(rng.integers(0, 13))
            desc = DescriptorSet(rng.standard_normal((k, DESCRIPTOR_DIM)).astype(np.float32)) if k else DescriptorSet.empty()
            frames.append(
                GeoFrame(
                    fid,
                    int(rng.integers(-(2**40), 2**40)),
                    GeoPoint(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))),
                    desc,
                )
            )
        db = Database(frames, source=f"rt{i}", camera="c")
        p1 = tmp_path / f"a{i}.vldb"
        p2 = tmp_path / f"b{i}.vldb"
        save_db(db, p1)
        loaded = load_db(p1)
        save_db(loaded, p2)
        if p1.read_bytes() != p2.read_bytes():
            bad += 1
            continue
        for a, b in zip(db.frames, loaded.frames):
            if (
                a.frame_id != b.frame_id
                or a.timestamp_ns != b.timestamp_ns
                or a.geotag != b.geotag
                or not np.array_equal(a.descriptors.array, b.descriptors.array)
            ):
                bad += 1
                break

    fixture_geo = [(49.01494, 8.43413), (49.01500, 8.43429), (49.01489, 8.43398)]
    stamps = [
        "2011-09-26 13:02:25.594360375",
        "2011-09-26 13:02:25.697858896",
        "2011-09-26 13:02:25.801318268",
    ]
    root = tmp_path / "kitti"
    (root / "oxts" / "data").mkdir(parents=True)
    (root / "descriptors").mkdir()
    (root / "oxts" / "timestamps.txt").write_text("".join(s + "\n" for s in stamps))
    for i, (lat, lon) in enumerate(fixture_geo):
        (root / "oxts" / "data" / f"{i:010d}.txt").write_text(f"{lat} {lon} " + "0.0 " * 28 + "\n")
        ds = DescriptorSet(rng.standard_normal((5, DESCRIPTOR_DIM)).astype(np.float32))
        write_desc_file(root / "descriptors" / f"{i:010d}.desc", GeoFrame(i, 0, GeoPoint(lat, lon), ds))
    ingested = ingest_kitti(root)
    geo_ok = len(ingested) == 3 and all(
        f.geotag.lat == lat and f.geotag.lon == lon
        for f, (lat, lon) in zip(ingested.frames, fixture_geo)
    )

    ok = bad == 0 and geo_ok
    assert report(
        8,
        "save/load bit-exact on 50 databases; 3-frame ingestion verbatim",
        ok,
        f"{bad} round-trip failures, fixture geotags {'ok' if geo_ok else 'wrong'}",
    )


def test_criterion_09_window_exclusion_soundness():
    world = WorldConfig(seed=9)
    db = gen_world(world)
    rng = np.random.default_rng(1009)
    period_ns = db.frames[1].timestamp_ns - db.frames[0].timestamp_ns
    match_cfg = MatchConfig()
    violations = 0
    for _ in range(100):
        idx = int(rng.integers(15, len(db) - 15))
        base = db.frames[idx]
        query = base.descriptors
        query_ts = base.timestamp_ns + int(rng.integers(-period_ns // 2, period_ns // 2))
        window_s = float(rng.uniform(2.0, 10.0))
        exclusion_s = float(rng.uniform(0.15, 1.2))
        cfg = ScanConfig(window_s=window_s, exclusion_s=exclusion_s)
        frame, _ = scan(db, query, query_ts, cfg, match_cfg, center_ts=query_ts)
        if abs(frame.timestamp_ns - query_ts) > window_s * 1e9:
            violations += 1
        if abs(frame.timestamp_ns - query_ts) <= exclusion_s * 1e9:
            violations += 1

    # a window covering the whole recording plus no exclusion equals a full scan
    disagreements = 0
    mid_ts = db.frames[len(db) // 2].timestamp_ns
    for _ in range(20):
        idx = int(rng.integers(0, len(db)))
        query = db.frames[idx].descriptors
        query_ts = db.frames[idx].timestamp_ns
        wide = ScanConfig(window_s=1e6, exclusion_s=None)
        full = ScanConfig(window_s=None, exclusion_s=None)
        fa, ca = scan(db, query, query_ts, wide, match_cfg, center_ts=mid_ts)
        fb, cb = scan(db, query, query_ts, full, match_cfg)
        if fa.frame_id != fb.frame_id or ca != cb:
            disagreements += 1

    ok = violations == 0 and disagreements == 0
    assert report(
        9,
        "scans respect window and exclusion; whole-range window = full scan",
        ok,
        f"{violations} violations, {disagreements} disagreements",
    )


def test_criterion_10_determinism(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code = main(
            [
                "simulate",
                "--trials",
                "25",
                "--seed",
                "5",
                "--steps",
                "4",
                "--out-dir",
                str(d),
            ]
        )
        assert code == 0
    same_csv = (d1 / "errors.csv").read_bytes() == (d2 / "errors.csv").read_bytes()
    assert report(10, "same seed gives byte-identical errors.csv", same_csv, f"csv identical: {same_csv}")
