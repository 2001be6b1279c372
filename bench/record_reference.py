"""Record mc_eval's reference: the matched frame ids of criterion 6's 1000 trials.

    python3 bench/record_reference.py

mc_eval checks every trial it runs against this file, so a change that moves
any retrieval result fails the benchmark's output check. Re-record only in a
change whose purpose is to alter retrieval results, and say so there.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vloc import evaluate, localize_sequence  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    spec = workloads.SPECS["mc_eval"]
    ids, traces = [], []
    for world_seed, start_seed in workloads.pool_seeds():
        db, queries = workloads.pool_trial(spec, world_seed, start_seed)
        trace = localize_sequence(db, queries, spec.scan, workloads.MATCH, workloads.FILTER)
        ids.append([s.matched_frame_id for s in trace])
        traces.append(trace)
    stats = evaluate(traces)
    head = {
        "about": "matched frame ids of criterion 6's trials (WorldConfig(seed=0), "
        "ScanConfig(window_s=20, exclusion_s=1), 6 queries at 1 s), in SeedSequence(0).spawn order",
        "mean_meas_m": stats.mean_meas_m.tolist(),
        "mean_est_m": stats.mean_est_m.tolist(),
    }
    # one trial per line keeps the file short and its diffs readable
    text = json.dumps(head, indent=1)[:-2] + ',\n "matched_frame_ids": [\n'
    text += ",\n".join("  " + json.dumps(t) for t in ids) + "\n ]\n}\n"
    workloads.REFERENCE_PATH.write_text(text)
    print(f"wrote {len(ids)} trials to {workloads.REFERENCE_PATH}; "
          f"mean meas {stats.mean_meas_m.round(2).tolist()}, mean est {stats.mean_est_m.round(2).tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
