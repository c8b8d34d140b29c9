"""tools/bench.py writes a BENCH record in smoke mode, and a record compared with itself reads 1 on every key."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def test_smoke_record_has_the_schema_and_compares_to_itself_as_one(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    subprocess.run([sys.executable, str(BENCH), "--smoke", "--out", str(out)], check=True)
    record = json.loads(out.read_text())
    assert record["schema"] == 1
    assert {"git_sha", "dirty", "src_sha256", "python", "numpy", "nproc"} <= set(record["provenance"])
    assert record["provenance"]["reps"] == 1 and record["provenance"]["smoke"] is True
    assert record["size"]["src_lines"] > 0 and record["size"]["tier1_tests"] is None
    assert set(record["wall_s"]) == {"python -c pass", "import qbound", "bound", "bound --modes 1"}
    for summary in record["wall_s"].values():
        (seconds,) = summary["values"]
        assert summary["median"] == summary["q1"] == summary["q3"] == seconds > 0.0
    lines = subprocess.run([sys.executable, str(BENCH), "--compare", str(out), str(out)],
                           check=True, capture_output=True, text=True).stdout.splitlines()
    assert len(lines) == 1 + len(record["wall_s"])  # src_lines and every command; tier1_tests is null
    assert all(line.split()[0] == "1.000" for line in lines)
