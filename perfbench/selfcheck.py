"""Check the benchmark itself at smoke size; takes about a minute.

    python3 perfbench/selfcheck.py

For every workload and both trace modes it runs run.py --smoke and checks
the result line against BENCHMARK.json: the exact keys, correct and zero
failures, and every metric named there with its unit. It feeds the output
checks outputs that are wrong on purpose and expects each to be refused,
feeds the closure check spans that do not add up and expects them flagged,
and expects run.py to fail without a result line in a directory that holds
only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench" / "selfcheck"


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            if trace == "0":
                assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
            print(f"ok  {workload} trace={trace}: {result['attempted']} calls")


def check_checks_refuse_wrong_outputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    work = SCRATCH / "checks"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "b.json").write_text(json.dumps({"beats_sec": [0.56, 1.06]}))
    assert workloads.check_beats("b.json", [0.5, 1.0])(work, 0) is not None
    (work / "b.json").write_text(json.dumps({"beats_sec": [0.5, 0.75, 1.0]}))
    assert workloads.check_beats("b.json", [0.5, 1.0])(work, 0) is not None  # a spurious beat
    (work / "b.json").write_text(json.dumps({"beats_sec": [0.5, 1.0]}))
    assert workloads.check_beats("b.json", [0.5, 1.0])(work, 0) is None
    assert workloads.check_beats("b.json", [0.5, 1.0])(work, 2) is not None
    (work / "t.json").write_text(json.dumps({"bpm": 121.5}))
    assert workloads.check_tempo("t.json", 120.0, {})(work, 0) is not None
    report = {"b_g": 4, "b_t": 3, "b_a": 3, "bcs": 0.75, "bhs": 1.0, "f1": 0.86}
    (work / "e.json").write_text(json.dumps({"clips": [{"report": report, "phase_align": {}}]}))
    assert workloads.check_evaluate("e.json", 1, {})(work, 0) is not None
    report = {"b_g": 4, "b_t": 4, "b_a": 2, "bcs": 0.5, "bhs": 0.5, "f1": 0.5}
    (work / "e.json").write_text(json.dumps({"clips": [{"report": report, "phase_align": {}}]}))
    assert workloads.check_evaluate("e.json", 1, {})(work, 0) is not None  # f1 below the floor
    beat_at = [0, 0, 0, 1, 0, 0, 1, 0, 0, 0]  # fps 10: beats at 0.3 and 0.6 s
    (work / "r.json").write_text(json.dumps({"fps": 10.0, "bits": beat_at}))
    assert workloads.check_rhythm("r.json", 10, [0.3, 0.6])(work, 0) is None
    assert workloads.check_rhythm("r.json", 11, [0.3, 0.6])(work, 0) is not None
    (work / "r.json").write_text(json.dumps({"fps": 10.0, "bits": [0] * 10}))
    assert workloads.check_rhythm("r.json", 10, [0.3, 0.6])(work, 0) is not None
    (work / "r.json").write_text(json.dumps({"fps": 10.0, "bits": [0, 0] + [1] * 8}))
    assert workloads.check_rhythm("r.json", 10, [0.3, 0.6])(work, 0) is not None
    (work / "g.json").write_text(json.dumps({"passed": False}))
    assert workloads.check_gradcheck("g.json")(work, 0) is not None
    shutil.rmtree(work)
    print("ok  output checks refuse wrong outputs")


def check_closure_flags() -> None:
    sys.path.insert(0, str(BENCH))
    import run

    row = {"calls": 16, "untraced_s": 0.5, "layer_self_s": 0.02, "setup_s": 0.45, "overhead_s": 0.004,
           "tracing_s": 0.01, "residual_s": 0.026, "untraced_range_s": 0.05}
    setup = [0.44, 0.45, 0.46]
    assert run.closure_problems({"extract": row}, setup) == []
    assert run.closure_problems({"extract": dict(row, residual_s=0.3)}, setup)  # unexplained time
    assert run.closure_problems({"extract": dict(row, residual_s=-0.3)}, setup)  # time counted twice
    assert run.closure_problems({"extract": dict(row, overhead_s=-0.001)}, setup)
    assert run.closure_problems({"extract": dict(row, residual_s=0.3, calls=2)}, setup) == []
    print("ok  closure check flags spans that do not add up")


def check_fails_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "long-take", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    print("ok  fails without a result when the source is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checks_refuse_wrong_outputs()
    check_closure_flags()
    check_fails_without_source()
    check_result_lines(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
