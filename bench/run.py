"""vloc benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload mc_eval --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it): the package is
imported from ``src/`` beside this directory, never from an installed copy.
``--trace 0`` measures the end-to-end metrics. ``--trace 1`` first runs the
same command with ``--trace 0`` in a fresh child process, then repeats its
exact ops with every layer wrapped in spans, checks that both produced
identical outputs and reports the per-layer metrics and the tracing
overhead.

Stdout ends with two JSON lines: a record (environment, set-up and output
details, failure messages) and the result, ``{"correct", "attempted",
"failed", "metrics"}``. Both, and the spans of a traced run, are also
written under ``.bench_out/`` in the checkout.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["mc_eval", "long_drive", "city_db"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time; every run also completes its minimum op count")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true", help="small worlds and op counts, for the self-tests")
    return p.parse_args(argv)


def _blas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None:
                out = {"library": Path(path).name, "threads": int(threads())}
                if config is not None:
                    config.restype = ctypes.c_char_p
                    out["config"] = config().decode()
                return out
    return {"library": None, "threads": None}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """Read, never set: the machine and library facts a timing depends on."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "vloc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_runtime": _blas_runtime(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def _run_child(args) -> dict:
    """The untraced twin of a traced run, in its own process; returns its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"untraced run exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vloc" / "__init__.py").is_file():
        print(f"no vloc package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import vloc
    import tracer as tracing
    import workloads

    if Path(vloc.__file__).resolve().parent != SRC / "vloc":
        print(f"imported vloc from {vloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = (workloads.TOY_SPECS if args.toy else workloads.SPECS)[args.workload]
    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    child = _run_child(args) if args.trace else None
    tr = tracing.Tracer() if args.trace else None
    try:
        with workloads.scratch_dir(ROOT) as work:
            run = workloads.run(
                spec, args.seed, args.seconds, Path(work), tracer=tr,
                max_ops=child["attempted"] if child else None,
            )
    except workloads.BenchError as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        return 1

    problems = list(run.problems)
    if child is None:
        metrics = workloads.end_to_end(run)
    else:
        if child["digest"] != run.digest:
            problems.append(f"traced outputs differ from the untraced run ({run.digest} vs {child['digest']})")
        problems += [f"untraced run: {p}" for p in child["problems"]]
        overhead = run.measured_s / child["measured_s"] - 1.0
        metrics = tracing.layer_metrics(tr, run, overhead)
        tr.write(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")

    correct = not problems and run.failed == 0 and (child is None or child["failed"] == 0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "problems": problems,
        "digest": run.digest,
        "measured_s": run.measured_s,
        "setup_s": run.setup_s,
        "db_bytes": run.db_bytes,
        "samples": {
            "trials": len(run.op_s),
            "first_queries": len(run.first_query_s),
            "tracked_queries": len(run.tracked_query_s),
        },
        "tie_wins": run.ties,
        "meas_err_m": run.meas_err_m,
        "final_est_err_m": run.final_est_err_m,
        "rss_start_mb": run.rss_start_mb,
        "rss_after_setup_mb": run.rss_after_setup_mb,
        "first_op_rss_delta_mb": run.first_op_rss_delta_mb,
        "peak_rss_mb": run.peak_rss_mb,
        "cpu_steal_frac": run.cpu_steal_frac,
    }
    if tr is not None:
        record["span_counts"] = tr.counts()
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
