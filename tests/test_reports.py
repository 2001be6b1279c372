"""The bytes of every report the CLI writes, pinned against committed copies.

`vloc query` runs over a generated 30 s drive with five queries, one of them
without truth; `vloc simulate` runs 20 trials of the default evaluation
setup. Both stdouts, trace.csv, errors.csv and errors.svg must equal the
files under golden_reports/ byte for byte, so a change to how a column is
declared or formatted cannot alter an existing report unnoticed. A new
column changes trace.csv on purpose: its copy is then rewritten from the
new output, and the diff shows that only the new column moved.
"""

from pathlib import Path

from vloc import synthworld
from vloc.cli import main
from vloc.database import GeoFrame, save_db, write_desc_file

GOLDEN = Path(__file__).parent / "golden_reports"


def query_reports(tmp_path, capsys) -> dict[str, bytes]:
    cfg = synthworld.WorldConfig(seed=11, duration_s=30.0)
    db = synthworld.gen_world(cfg)
    save_db(db, tmp_path / "drive.vldb")
    lines = ["timestamp_ns,descriptor_path,truth_lat,truth_lon"]
    queries = synthworld.gen_queries(db, synthworld.T0_NS + 5 * 10**9, 5, 2.0, cfg)
    for i, q in enumerate(queries):
        write_desc_file(tmp_path / f"q{i}.desc", GeoFrame(i, q.timestamp_ns, q.truth, q.descriptors))
        truth = ("", "") if i == 2 else (repr(q.truth.lat), repr(q.truth.lon))
        lines.append(",".join([str(q.timestamp_ns), f"q{i}.desc", *truth]))
    (tmp_path / "queries.csv").write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    args = ["query", "--db", "drive.vldb", "--queries", "queries.csv", "--out-dir", "qout", "--exclusion-s", "1"]
    assert main(args) == 0
    return {"query_stdout.txt": capsys.readouterr().out.encode(), "trace.csv": (tmp_path / "qout" / "trace.csv").read_bytes()}


def simulate_reports(tmp_path, capsys) -> dict[str, bytes]:
    capsys.readouterr()
    assert main(["simulate", "--trials", "20", "--out-dir", "sout"]) == 0
    out = {"simulate_stdout.txt": capsys.readouterr().out.encode()}
    for name in ("errors.csv", "errors.svg"):
        out[name] = (tmp_path / "sout" / name).read_bytes()
    return out


def test_reports_are_byte_identical_to_the_committed_copies(tmp_path, capsys, monkeypatch):
    # relative paths, so the printed "written to" lines do not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    got = {**query_reports(tmp_path, capsys), **simulate_reports(tmp_path, capsys)}
    assert sorted(got) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in got.items():
        assert data == (GOLDEN / name).read_bytes(), name
