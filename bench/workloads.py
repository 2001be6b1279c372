"""The benchmark's workloads: inputs made from a seed, one closed-loop caller,
every output checked.

An operation (op) is one trial: make its inputs, then localize them with one
``localize_sequence`` call. In ``mc_eval`` that is criterion 6's trial
(``gen_world`` -> ``gen_queries`` -> ``localize_sequence`` on a fresh 80-frame
world); in ``long_drive`` and ``city_db`` it is one query sequence
(``gen_queries`` -> ``localize_sequence``) against a database built once in
set-up by ``gen_world`` -> ``save_db`` -> ``load_db``. The next op starts only
when the previous one has returned.

Per-query latencies come from a clock on ``vloc.pipeline.scan``, the name the
pipeline calls once per query: query i runs from its scan's entry to the next
scan's entry (the first from the ``localize_sequence`` call, the last to its
return), so the filter step and trace bookkeeping of a query count as its
own. The clock is installed in untraced runs too; it costs one
``perf_counter`` call per query.
"""

import hashlib
import json
import math
import os
import resource
import struct
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import vloc.pipeline
from vloc import (
    FilterConfig,
    MatchConfig,
    ScanConfig,
    WorldConfig,
    count_correspondences,
    evaluate,
    gen_queries,
    gen_world,
    load_db,
    localize_sequence,
    save_db,
)
from vloc.synthworld import T0_NS

from tracer import patched

PERIOD_S = 1.0
MATCH = MatchConfig()
FILTER = FilterConfig()

REFERENCE_PATH = Path(__file__).with_name("mc_eval_reference.json")
POOL_SIZE = 1000
"""mc_eval draws its trials from criterion 6's 1000 trials (master seed 0)."""

MEAS_BAND_M = (10.0, 30.0)
"""Criterion 6(a): per-step mean measurement error under the 1 s exclusion."""


@dataclass(frozen=True)
class Spec:
    name: str
    world: WorldConfig
    """World of the run; its seed is replaced by the run's seed (or the pool's)."""
    scan: ScanConfig
    queries: int
    """Queries per sequence, PERIOD_S apart."""
    setup_reps: int
    """gen_world -> save_db -> load_db repetitions; setup_s is their median."""
    min_ops: int
    """Ops every run completes whatever --seconds says. Tail percentiles need
    at least 100 samples, and the accuracy figures are taken over exactly
    these first ops, so they repeat for a fixed seed."""
    pool: bool = False
    """True for mc_eval: each op is a criterion-6 trial with its own world."""


SPECS = {
    "mc_eval": Spec(
        "mc_eval",
        WorldConfig(),
        ScanConfig(window_s=20.0, exclusion_s=1.0),
        queries=6,
        setup_reps=9,
        min_ops=100,
        pool=True,
    ),
    "long_drive": Spec(
        "long_drive",
        WorldConfig(duration_s=100.0),
        ScanConfig(window_s=20.0),
        queries=10,
        setup_reps=5,
        min_ops=12,
    ),
    # 20 queries at 1 Hz is the longest sequence that stays inside the 20 s
    # window around the first match; 64 keypoints keep the first, unwindowed
    # scan near 0.9 GB peak RSS.
    "city_db": Spec(
        "city_db",
        WorldConfig(duration_s=1000.0, keypoints_per_frame=64),
        ScanConfig(window_s=20.0),
        queries=20,
        setup_reps=3,
        min_ops=6,
    ),
}

TOY_SPECS = {
    "mc_eval": replace(SPECS["mc_eval"], setup_reps=1, min_ops=2),
    "long_drive": replace(
        SPECS["long_drive"], world=WorldConfig(duration_s=45.0), setup_reps=1, min_ops=2
    ),
    "city_db": replace(
        SPECS["city_db"],
        world=WorldConfig(duration_s=45.0, keypoints_per_frame=64),
        setup_reps=1,
        min_ops=2,
    ),
}
"""Same code paths on small worlds, for the benchmark's self-tests."""

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms.p50": "ms",
    "trial_ms.p90": "ms",
    "first_query_ms.p50": "ms",
    "tracked_query_ms.p50": "ms",
    "tracked_query_ms.p90": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The package no longer has the shape the benchmark measures; the run stops."""


def pool_seeds(n: int = POOL_SIZE) -> list[tuple[int, int]]:
    """(world_seed, start_seed) of criterion 6's trials, as run_monte_carlo derives them."""
    children = np.random.SeedSequence(0).spawn(n)
    return [tuple(int(v) for v in c.generate_state(2)) for c in children]


def _no_span(name):
    return nullcontext()


def pool_trial(spec: Spec, world_seed: int, start_seed: int, span=_no_span):
    """Inputs of one criterion-6 trial: its world and its grid-aligned queries,
    started with run_monte_carlo's margin rule."""
    cfg = replace(spec.world, seed=world_seed)
    with span("synthworld.gen_world"):
        db = gen_world(cfg)
    period_ns = int(round(1e9 / cfg.db_hz))
    margin = math.ceil(((spec.scan.exclusion_s or 0.0) + 2.0 / cfg.db_hz) * 1e9 / period_ns)
    span_frames = round((spec.queries - 1) * PERIOD_S * 1e9 / period_ns)
    hi = len(db) - 1 - span_frames - margin
    start_idx = int(np.random.default_rng(start_seed).integers(margin, hi + 1))
    with span("synthworld.gen_queries"):
        queries = gen_queries(db, T0_NS + start_idx * period_ns, spec.queries, PERIOD_S, cfg)
    return db, queries


def load_reference() -> list[list[int]]:
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)
    ids = ref["matched_frame_ids"]
    if len(ids) != POOL_SIZE:
        raise BenchError(f"{REFERENCE_PATH.name} holds {len(ids)} trials, expected {POOL_SIZE}")
    return ids


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) over all CPUs since boot; steal is time the host ran others."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


class _Clock:
    """Entry time of every vloc.pipeline.scan call since the last reset."""

    def __init__(self):
        self.marks: list[float] = []

    def wrap(self, fn):
        def timed(*args, **kwargs):
            self.marks.append(perf_counter())
            return fn(*args, **kwargs)

        return timed


@dataclass
class Run:
    setup_s: list = field(default_factory=list)
    db_bytes: int = 0
    op_s: list = field(default_factory=list)
    localize_s: list = field(default_factory=list)
    first_query_s: list = field(default_factory=list)
    tracked_query_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ties: int = 0
    problems: list = field(default_factory=list)
    measured_s: float = 0.0
    digest: str = ""
    meas_err_m: float = float("nan")
    final_est_err_m: float = float("nan")
    rss_start_mb: float = 0.0
    rss_after_setup_mb: float = 0.0
    first_op_rss_delta_mb: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_steal_frac: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _finite(step) -> bool:
    e = step.estimate
    return all(map(math.isfinite, (e.lat, e.lon, step.vel_lat_dps, step.vel_lon_dps)))


class _Workload:
    """State of one run: inputs, the clock, the tracer and what was measured."""

    def __init__(self, spec: Spec, seed: int, tracer, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.clock = _Clock()
        self.run = Run()
        self.sha = hashlib.sha256()
        self.kept = []  # traces of the first min_ops ops, for the accuracy figures
        if spec.pool:
            self.pool = pool_seeds()
            self.reference = load_reference()
            self.plan = np.random.default_rng(seed).permutation(POOL_SIZE)

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def set_unit(self, unit):
        if self.tracer is not None:
            self.tracer.unit = unit

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        if self.spec.pool:
            cfg = replace(self.spec.world, seed=self.pool[self.plan[0]][0])
        else:
            cfg = replace(self.spec.world, seed=self.seed)
        path = self.workdir / "db.vldb"
        for _ in range(self.spec.setup_reps):
            self.db = None  # free the previous copy before building the next
            t0 = perf_counter()
            with self.span("synthworld.gen_world"):
                world = gen_world(cfg)
            with self.span("database.save_db"):
                save_db(world, path)
            with self.span("database.load_db"):
                self.db = load_db(path)
            self.run.setup_s.append(perf_counter() - t0)
            del world
        self.run.db_bytes = path.stat().st_size
        path.unlink()
        self.cfg = cfg
        self.n_frames = len(self.db)
        self.period_ns = int(round(1e9 / cfg.db_hz))

    # -- one operation -----------------------------------------------------

    def _localize(self, db, queries):
        """Run one sequence; returns its trace and per-query latencies."""
        self.clock.marks.clear()
        t0 = perf_counter()
        with self.span("pipeline.localize_sequence"):
            trace = localize_sequence(db, queries, self.spec.scan, MATCH, FILTER)
        t1 = perf_counter()
        if len(self.clock.marks) != len(queries):
            raise BenchError(
                f"vloc.pipeline.scan ran {len(self.clock.marks)} times for {len(queries)} queries; "
                "the benchmark's per-query clock and scan span no longer see every query"
            )
        bounds = [t0, *self.clock.marks[1:], t1]
        return trace, t1 - t0, [b - a for a, b in zip(bounds, bounds[1:])]

    def _mc_trial(self, n: int):
        idx = int(self.plan[n % POOL_SIZE])
        db, queries = pool_trial(self.spec, *self.pool[idx], span=self.span)
        trace, loc_s, lat = self._localize(db, queries)

        problems = []
        if len(trace) != self.spec.queries:
            problems.append(f"{len(trace)} steps, expected {self.spec.queries}")
        radius = self.spec.scan.exclusion_s * 1e9
        for s in trace:
            if not abs(db.frame_by_id(s.matched_frame_id).timestamp_ns - s.query_ts) > radius:
                problems.append(f"step {s.step}: frame {s.matched_frame_id} inside the exclusion zone")
        ids = [s.matched_frame_id for s in trace]
        if ids != self.reference[idx]:
            problems.append(f"pool trial {idx}: matched {ids}, reference {self.reference[idx]}")
        return trace, loc_s, lat, problems

    def _drive_sequence(self, n: int):
        # Start a full window from either end, so every tracked scan sees the
        # same ~400 candidates and buffer sizes do not depend on the seed.
        margin = round(self.spec.scan.window_s * 1e9 / self.period_ns)
        rng = np.random.default_rng([self.seed, 2, n] if n >= 0 else [self.seed, 3])
        start_idx = int(rng.integers(margin, self.n_frames - margin))
        with self.span("synthworld.gen_queries"):
            queries = gen_queries(
                self.db, T0_NS + start_idx * self.period_ns, self.spec.queries, PERIOD_S, self.cfg
            )
        trace, loc_s, lat = self._localize(self.db, queries)

        problems = []
        if len(trace) != self.spec.queries:
            problems.append(f"{len(trace)} steps, expected {self.spec.queries}")
        step_frames = round(PERIOD_S * 1e9 / self.period_ns)
        for s, q in zip(trace, queries):
            source = self.db.frames[start_idx + (s.step - 1) * step_frames]
            if s.matched_frame_id == source.frame_id:
                continue
            # A winner other than the source is right only as a tie that
            # best_match resolved to the lower frame id, e.g. when the
            # distractors replaced every keypoint the source does not share
            # with its predecessor.
            got = count_correspondences(q.descriptors, self.db.frame_by_id(s.matched_frame_id).descriptors, MATCH)
            want = count_correspondences(q.descriptors, source.descriptors, MATCH)
            if got == want and s.matched_frame_id < source.frame_id:
                self.run.ties += 1
            else:
                problems.append(
                    f"step {s.step}: matched frame {s.matched_frame_id} ({got} matches), "
                    f"source {source.frame_id} ({want})"
                )
        return trace, loc_s, lat, problems

    def op(self, n: int) -> None:
        """One measured operation; failures are counted, not raised."""
        run = self.run
        run.attempted += 1
        self.set_unit(n)
        t0 = perf_counter()
        try:
            trace, loc_s, lat, problems = (self._mc_trial if self.spec.pool else self._drive_sequence)(n)
        except BenchError:
            raise
        except Exception:
            run.measured_s += perf_counter() - t0
            run.failed += 1
            if run.failed <= 3:
                run.problems.append(f"op {n} raised:\n{traceback.format_exc()}")
            return
        finally:
            self.set_unit(None)
        dt = perf_counter() - t0
        run.measured_s += dt
        problems += [f"step {s.step}: non-finite estimate" for s in trace if not _finite(s)]
        if problems:
            run.failed += 1
            if run.failed <= 3:
                run.problems.append(f"op {n}: " + "; ".join(problems[:5]))
            return
        run.op_s.append(dt)
        run.localize_s.append(loc_s)
        run.first_query_s.append(lat[0])
        run.tracked_query_s.extend(lat[1:])
        for s in trace:
            e = s.estimate
            self.sha.update(struct.pack("<qdddd", s.matched_frame_id, e.lat, e.lon, s.vel_lat_dps, s.vel_lon_dps))
        if n < self.spec.min_ops:
            self.kept.append(trace)

    def warm_up(self) -> None:
        """One unrecorded op, so lazy start-up (BLAS threads, first touches) is not timed."""
        (self._mc_trial if self.spec.pool else self._drive_sequence)(-1)

    def finish(self) -> None:
        run = self.run
        run.digest = self.sha.hexdigest()
        if not self.kept:
            run.problems.append("no successful op among the first min_ops")
            return
        with self.span("pipeline.evaluate"):
            stats = evaluate(self.kept)
        run.meas_err_m = float(stats.mean_meas_m.mean())
        run.final_est_err_m = stats.final_mean_est_m
        if self.spec.pool:
            lo, hi = MEAS_BAND_M
            if not np.all((stats.mean_meas_m >= lo) & (stats.mean_meas_m <= hi)):
                run.problems.append(
                    f"per-step mean measurement error {np.round(stats.mean_meas_m, 2).tolist()} "
                    f"outside [{lo}, {hi}] m"
                )


def run(spec: Spec, seed: int, seconds: float, workdir: Path, tracer=None, max_ops=None) -> Run:
    """Set up, warm up, then run ops for `seconds` (at least spec.min_ops),
    or exactly `max_ops` ops when given."""
    w = _Workload(spec, seed, tracer, workdir)
    w.run.rss_start_mb = rss_mb()
    hooks = tracer.installed() if tracer is not None else nullcontext()
    with hooks, patched(vloc.pipeline, "scan", w.clock.wrap):
        w.setup()
        w.warm_up()
        w.run.rss_after_setup_mb = rss_mb()
        steal0, total0 = _cpu_jiffies()
        start = perf_counter()
        n = 0
        while (n < max_ops) if max_ops is not None else (
            n < spec.min_ops or perf_counter() - start < seconds
        ):
            before = rss_mb() if n == 0 else 0.0
            w.op(n)
            if n == 0:
                w.run.first_op_rss_delta_mb = max(0.0, peak_rss_mb() - before)
            n += 1
        steal1, total1 = _cpu_jiffies()
        w.run.cpu_steal_frac = (steal1 - steal0) / max(1, total1 - total0)
        w.finish()
    w.run.peak_rss_mb = peak_rss_mb()
    return w.run


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end(r: Run) -> dict[str, tuple[float, str]]:
    values = {
        "setup_s": float(np.median(r.setup_s)),
        "trials_per_s": len(r.op_s) / sum(r.op_s) if r.op_s else 0.0,
        "trial_ms.p50": 1e3 * _pct(r.op_s, 50),
        "trial_ms.p90": 1e3 * _pct(r.op_s, 90),
        "first_query_ms.p50": 1e3 * _pct(r.first_query_s, 50),
        "tracked_query_ms.p50": 1e3 * _pct(r.tracked_query_s, 50),
        "tracked_query_ms.p90": 1e3 * _pct(r.tracked_query_s, 90),
        "queries_per_s": (len(r.first_query_s) + len(r.tracked_query_s)) / sum(r.localize_s)
        if r.localize_s
        else 0.0,
        "peak_rss_mb": r.peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def scratch_dir(root: Path):
    """Temporary directory inside the checkout for the database file."""
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out, prefix="work-")
