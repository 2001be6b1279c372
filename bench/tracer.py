"""In-memory span tracing of the vloc layers, installed from outside the package.

A span is one call into a layer: its name, start and end (``perf_counter``
seconds), the index of the enclosing span and the id of the trial or
sequence it belongs to (``None`` outside measured operations, e.g. during
set-up). Spans stay in memory and are written out once, when the run ends.

Library functions are wrapped where their caller looks them up, so the
package itself is not edited: the pipeline calls ``vloc.pipeline.scan``,
``scan`` calls ``vloc.database.best_match`` and the pipeline calls
``vloc.kalman.step`` / ``vloc.kalman.update``. The benchmark's own calls
(world and query generation, save/load, localize_sequence, evaluate) open
spans at the call site with :meth:`Tracer.span`.
"""

import json
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

import vloc.database
import vloc.kalman
import vloc.pipeline

# name of each patched span -> (module object, attribute name)
PATCHED = {
    "database.scan": (vloc.pipeline, "scan"),
    "matching.best_match": (vloc.database, "best_match"),
    "kalman.step": (vloc.kalman, "step"),
    "kalman.update": (vloc.kalman, "update"),
}

# spans opened by the benchmark around its own calls into the package
CALL_SITE = (
    "synthworld.gen_world",
    "synthworld.gen_queries",
    "database.save_db",
    "database.load_db",
    "pipeline.localize_sequence",
    "pipeline.evaluate",
)

LAYER_SPANS = tuple(PATCHED) + CALL_SITE


@contextmanager
def patched(module, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _best_match_attrs(args, result):
    query, candidates = args[0], args[1]
    return {
        "m": len(query),
        "candidates": len(candidates),
        "rows": sum([len(ds) for _, ds in candidates]),
        "winner_count": result[1],
    }


class Tracer:
    """Collects spans; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list = []
        self.attrs: dict[int, dict] = {}
        self.unit = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrapper(self, name, fn, attrs_of=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if attrs_of is not None:
                self.attrs[i] = attrs_of(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point in PATCHED for the duration of the block."""
        with ExitStack() as stack:
            for name, (module, attr) in PATCHED.items():
                attrs_of = _best_match_attrs if name == "matching.best_match" else None
                stack.enter_context(
                    patched(module, attr, lambda fn, name=name, a=attrs_of: self._wrapper(name, fn, a))
                )
            yield self

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in LAYER_SPANS}
        for name in self.names:
            out[name] = out.get(name, 0) + 1
        return out

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span.

        Calls are synchronous on one thread, so sibling spans never overlap
        and the covered time is the sum of the children's durations.
        """
        self_t = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_t[p] -= self.ends[i] - self.starts[i]
        return self_t

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                rec = {
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "unit": self.units[i],
                }
                if i in self.attrs:
                    rec["attrs"] = self.attrs[i]
                fh.write(json.dumps(rec) + "\n")


LAYER_METRICS = {
    "synthworld.gen_world.ms_p50": "ms",
    "synthworld.gen_queries.ms_p50": "ms",
    "synthworld.share": "ratio",
    "database.save_db.mb_per_s": "MB/s",
    "database.load_db.mb_per_s": "MB/s",
    "database.load_db.s": "s",
    "database.scan.calls": "count",
    "database.scan.self_ms_p50": "ms",
    "database.scan.candidates_mean": "frames",
    "matching.best_match.ms_p50": "ms",
    "matching.best_match.share": "ratio",
    "matching.rows_per_scan": "rows",
    "matching.pairs": "count",
    "matching.ns_per_pair": "ns",
    "matching.gflops_computed": "GFLOP/s",
    "matching.buffer_mb_computed": "MB",
    "matching.winner_match_frac": "ratio",
    "kalman.step.us_p50": "us",
    "kalman.update.us_p50": "us",
    "kalman.calls": "count",
    "pipeline.localize_sequence.self_ms_p50": "ms",
    "pipeline.evaluate.ms": "ms",
    "pipeline.meas_err_m": "m",
    "pipeline.final_est_err_m": "m",
    "process.first_query_rss_delta_mb": "MB",
    "trace.overhead_frac": "ratio",
}

MB = 2**20


def layer_metrics(tr: Tracer, run, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run.

    Counts, shares and per-call figures use the spans of measured ops only;
    world generation, save and load also cover set-up, where the drive
    workloads call them. Shares are of the summed op time.
    """
    silent = [name for name, c in tr.counts().items() if c == 0]
    if silent:
        raise RuntimeError(f"layer spans never fired: {silent}; a call moved, update the benchmark")
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    self_t = tr.self_times()

    def pick(name, measured=True):
        return [
            i for i, n in enumerate(tr.names) if n == name and (not measured or tr.units[i] is not None)
        ]

    def p50(idx, times=dur):
        return float(np.median([times[i] for i in idx]))

    gen = pick("synthworld.gen_world") + pick("synthworld.gen_queries")
    save, load = pick("database.save_db", False), pick("database.load_db", False)
    scans, bms = pick("database.scan"), pick("matching.best_match")
    attrs = [tr.attrs[i] for i in bms]
    pairs = sum(a["m"] * a["rows"] for a in attrs)
    bm_s = sum(dur[i] for i in bms)
    steps, updates = pick("kalman.step"), pick("kalman.update")
    top_updates = [i for i in updates if tr.parents[i] < 0 or tr.names[tr.parents[i]] != "kalman.step"]
    values = {
        "synthworld.gen_world.ms_p50": 1e3 * p50(pick("synthworld.gen_world", False)),
        "synthworld.gen_queries.ms_p50": 1e3 * p50(pick("synthworld.gen_queries", False)),
        "synthworld.share": sum(dur[i] for i in gen) / run.measured_s,
        "database.save_db.mb_per_s": run.db_bytes / MB / p50(save),
        "database.load_db.mb_per_s": run.db_bytes / MB / p50(load),
        "database.load_db.s": p50(load),
        "database.scan.calls": len(scans),
        "database.scan.self_ms_p50": 1e3 * p50(scans, self_t),
        "database.scan.candidates_mean": float(np.mean([a["candidates"] for a in attrs])),
        "matching.best_match.ms_p50": 1e3 * p50(bms),
        "matching.best_match.share": bm_s / run.measured_s,
        "matching.rows_per_scan": float(np.mean([a["rows"] for a in attrs])),
        "matching.pairs": pairs / len(bms),
        "matching.ns_per_pair": 1e9 * bm_s / pairs,
        "matching.gflops_computed": 2 * 128 * pairs / bm_s / 1e9,
        "matching.buffer_mb_computed": max((a["m"] + 128) * a["rows"] * 4 for a in attrs) / MB,
        "matching.winner_match_frac": sum(a["winner_count"] for a in attrs) / sum(a["m"] for a in attrs),
        "kalman.step.us_p50": 1e6 * p50(steps),
        "kalman.update.us_p50": 1e6 * p50(updates),
        "kalman.calls": len(steps) + len(top_updates),
        "pipeline.localize_sequence.self_ms_p50": 1e3 * p50(pick("pipeline.localize_sequence"), self_t),
        "pipeline.evaluate.ms": 1e3 * p50(pick("pipeline.evaluate", False)),
        "pipeline.meas_err_m": run.meas_err_m,
        "pipeline.final_est_err_m": run.final_est_err_m,
        "process.first_query_rss_delta_mb": run.first_op_rss_delta_mb,
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
