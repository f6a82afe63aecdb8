"""Fresh-process benchmark of the kinebeat CLI.

    python3 perfbench/run.py --workload long-take --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each workload's inputs are made
from --seed before timing starts. A pass runs the workload's `kinebeat`
commands one after another, each in a fresh interpreter, exactly as a user
runs one command per file; passes repeat while the next one still fits in
--seconds, and every metric is the median over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each command untraced and then replays it through replay.py, which puts a
span around every call into the pose, rhythm, audio, metrics and inversion
modules; it reports the per-layer metrics, and fails when a replay's
output bytes differ from the command's. --smoke shrinks every workload so
the whole benchmark checks itself in seconds (selfcheck.py).

Children run one at a time with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1: with default threads, fresh-interpreter import times
drifted by tens of percent between repeated sets and occasional
estimate_tempo calls stalled for about 0.5 s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric by name with its unit.
The full record (sizes, per-pass samples, versions) goes to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI = ["-c", "import sys; from kinebeat.cli import main; sys.exit(main())"]
IMPORT = ["-c", "import kinebeat.cli"]
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
CLOSURE_SLACK = 0.1  # share of a command's untraced time
CLOSURE_MIN_CALLS = 3
COMMAND_KEYS = ("extract", "detect", "tempo", "evaluate", "train", "gradcheck")
LAYERS = ("pose", "rhythm", "audio", "metrics", "inversion")

# per-layer timings: metric -> span name; the median duration per call
SPAN_TIMINGS = {
    "pose.parse_s": "pose.parse",
    "pose.repair_s": "pose.repair",
    "pose.segment_s": "pose.segment",
    "rhythm.velocity_s": "rhythm.velocity",
    "rhythm.discretize_s": "rhythm.discretize",
    "rhythm.accel_s": "rhythm.accel",
    "rhythm.total_s": "rhythm.total",
    "rhythm.peaks_s": "rhythm.peaks",
    "rhythm.to_json_s": "rhythm.to_json",
    "audio.read_wav_s": "audio.read_wav",
    "audio.onset_s": "audio.onset",
    "audio.pick_s": "audio.pick",
    "audio.tempo_s": "audio.tempo",
    "metrics.load_s": "metrics.load",
    "metrics.match_s": "metrics.match",
    "metrics.phase_align_s": "metrics.phase_align",
    "metrics.aggregate_s": "metrics.aggregate",
    "inversion.mlp.loss_s": "inversion.mlp.loss",
    "inversion.attnpos.loss_s": "inversion.attnpos.loss",
    "inversion.mlp.loss_grad_s": "inversion.mlp.loss_grad",
    "inversion.attnpos.loss_grad_s": "inversion.attnpos.loss_grad",
    "inversion.checkpoint_s": "inversion.checkpoint",
    "cli.import_s": "cli.import",
    "cli.import_numpy_s": "cli.import_numpy",
    "cli.import_scipy_io_s": "cli.import_scipy_io",
}
# per-layer counts: metric -> (span name, count key, scale, unit, note); median per call
SPAN_COUNTS = {
    "pose.frames": ("pose.parse", "frames", 1, "count", ""),
    "pose.repaired_keypoints": ("pose.repair", "keypoints", 1, "count", ""),
    "rhythm.dense_mb": ("rhythm.accel", "dense_bytes", 1e-6, "MB", "computed from nbytes"),
    "rhythm.beats": ("rhythm.peaks", "beats", 1, "count", ""),
    "audio.stft_frames": ("audio.onset", "stft_frames", 1, "count", "computed from length"),
    "audio.beats": ("audio.pick", "beats", 1, "count", ""),
    "metrics.offsets": ("metrics.phase_align", "offsets", 1, "count", "computed from the search grid"),
    "inversion.mlp.epochs": ("inversion.mlp.train", "epochs", 1, "count", ""),
    "inversion.attnpos.epochs": ("inversion.attnpos.train", "epochs", 1, "count", ""),
    "inversion.attnpos.probes": ("cmd.probe-loss", "probes_total", 1, "count", "computed from shapes"),
}


def per_layer_units() -> dict:
    """Every per-layer metric this benchmark reports, with its unit."""
    units = {name: "s" for name in SPAN_TIMINGS}
    units.update({name: spec[3] for name, spec in SPAN_COUNTS.items()})
    units.update(
        {
            "rhythm.alloc_peak_mb": "MB",
            "audio.onset_alloc_peak_mb": "MB",
            "metrics.pairs": "count",
            "inversion.mlp.probes": "count",
            "inversion.attnpos.gradcheck_est_s": "s",
            "cli.calls": "count",
        }
    )
    for key in COMMAND_KEYS:
        units[f"cli.{key}_s"] = "s"
        units[f"cli.{key}.overhead_s"] = "s"
        units[f"cli.{key}.tracing_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


class Child:
    """Outcome of one child process."""

    def __init__(self, wall_s, rc, rss_mb, stdout, stderr):
        self.wall_s, self.rc, self.rss_mb = wall_s, rc, rss_mb
        self.stdout, self.stderr = stdout, stderr


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs the children of one benchmark run and keeps its failures and counts."""

    def __init__(self, work: Path, env: dict, spans_dir: Path):
        self.work, self.env, self.spans_dir = work, env, spans_dir
        self.failures = []
        self.attempted = 0

    def run(self, argv) -> Child:
        """Run one interpreter to completion; wall time and max RSS come from wait4."""
        out_path, err_path = self.work / ".child.stdout", self.work / ".child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())

    def fail(self, where: str, problem: str, child: Child) -> None:
        self.failures.append(f"{where}: {problem}; {child.stderr.decode()[-300:]}")

    def measure_setup(self) -> list:
        """Fresh-interpreter `import kinebeat.cli` times, after one untimed warm-up."""
        times = []
        for i in range(SETUP_SAMPLES + 1):
            child = self.run(IMPORT)
            if child.rc:
                self.fail("import kinebeat.cli", f"exit {child.rc}", child)
                return times
            if i:
                times.append(child.wall_s)
        return times

    def run_pass(self, wl, trace: bool, pass_id: int) -> dict:
        """One pass of the workload's commands; returns the per-call records."""
        calls = []
        for idx, call in enumerate(wl.calls):
            child = self.run(CLI + call.args)
            self.attempted += 1
            calls.append({"command": call.command, "key": call.key, "wall_s": child.wall_s,
                          "rss_mb": child.rss_mb, "rc": child.rc})
            if trace:
                # check now: the replay rewrites the same output files
                self.check(call, child, pass_id)
                calls[-1]["replay"] = self.replay(call, child, pass_id, self.spans_dir / f"p{pass_id}c{idx}.json")
            else:
                calls[-1]["check"] = (call, child)
        for rec in calls:
            if "check" in rec:
                self.check(*rec.pop("check"), pass_id)
        return {"pass_s": sum(c["wall_s"] for c in calls), "calls": calls}

    def check(self, call, child, pass_id) -> None:
        problem = call.check(self.work, child.rc)
        if problem:
            self.fail(f"pass {pass_id} {call.command}", problem, child)

    def replay(self, call, child, pass_id, spans_file):
        """Replay the command traced and compare its output bytes with the command's."""
        work = self.work
        for out in call.outputs:
            (work / out).replace(work / (out + ".cli"))
        traced = self.run([str(BENCH / "replay.py"), "--spans", str(spans_file),
                           "--pass-id", str(pass_id), "--", *call.args])
        self.attempted += 1
        same = traced.rc == child.rc and traced.stdout == child.stdout
        for out in call.outputs:
            path, kept = work / out, work / (out + ".cli")
            same = same and path.exists() and path.read_bytes() == kept.read_bytes()
            kept.replace(path)
        if not same:
            self.fail(f"pass {pass_id} {call.command}", "replay output differs", traced)
            return None
        doc = json.loads(spans_file.read_text())
        doc.update(wall_s=traced.wall_s, untraced_s=child.wall_s, key=call.key)
        return doc

    def run_probe(self, args, pass_id, spans_file):
        traced = self.run([str(BENCH / "replay.py"), "--spans", str(spans_file),
                           "--pass-id", str(pass_id), "--", *args])
        self.attempted += 1
        if traced.rc:
            self.fail(f"pass {pass_id} {args[0]}", f"exit {traced.rc}", traced)
            return None
        return json.loads(spans_file.read_text())


def end_to_end(passes, setup_times) -> tuple:
    per_key = defaultdict(list)
    for p in passes:
        sums = defaultdict(float)
        for c in p["calls"]:
            sums[c["key"]] += c["wall_s"]
        for key, value in sums.items():
            per_key[key].append(value)
    metrics = {
        "setup_s": median(setup_times),
        "pass_s": median([p["pass_s"] for p in passes]),
        "peak_rss_mb": median([max(c["rss_mb"] for c in p["calls"]) for p in passes]),
    }
    by_command = {f"{key}_s": median(values) for key, values in per_key.items()}
    return metrics, by_command


def span_table(doc):
    """(name, duration_s, self_s, counts) for every span of one replay."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [
        (name, (end - start) / 1e9, (end - start - child_ns[i]) / 1e9, counts)
        for i, (name, start, end, parent, counts) in enumerate(spans)
    ]


def is_overhead(span_name: str) -> bool:
    """The CLI's own work: the command span's self time, reading, writing.

    The import spans are left out because setup_s stands for them, and the
    trace.* spans are the replay's own cost.
    """
    return span_name.startswith("cmd.") or (
        span_name.startswith("cli.") and not span_name.startswith("cli.import")
    )


def per_layer(passes, probe_docs, setup_s) -> tuple:
    """Per-layer metrics from the traced replays; (values, per-command closure rows)."""
    durations, counts = defaultdict(list), defaultdict(list)
    by_key = defaultdict(lambda: defaultdict(list))
    alloc = defaultdict(list)
    mlp_probes, pairs = [], []
    docs = [c["replay"] for p in passes for c in p["calls"] if c.get("replay")]
    for doc in docs + probe_docs:
        table = span_table(doc)
        for name, dur, _, cnt in table:
            durations[name].append(dur)
            for k, v in cnt.items():
                counts[(name, k)].append(v)
        if doc["command"] == "gradcheck":
            mlp_probes.append(sum(1 for name, *_ in table if name == "inversion.mlp.loss"))
        if doc["command"] == "evaluate":
            pairs.append(sum(1 for name, *_ in table if name == "metrics.match"))
        if doc["command"] == "probe-loss":
            continue
        if doc["alloc_peak_bytes"] is not None:
            alloc[doc["command"]].append(doc["alloc_peak_bytes"] / 1e6)
        row = by_key[doc["key"]]
        row["untraced"].append(doc["untraced_s"])
        row["layer_self"].append(sum(s for name, _, s, _ in table if name.split(".")[0] in LAYERS))
        row["overhead"].append(sum(s for name, _, s, _ in table if is_overhead(name)))
        row["tracing"].append(doc["wall_s"] - doc["untraced_s"] - doc["memory_pass_ns"] / 1e9)

    values = {name: median(durations.get(span, [])) for name, span in SPAN_TIMINGS.items()}
    for name, (span, key, scale, _, _) in SPAN_COUNTS.items():
        values[name] = median(counts.get((span, key), [])) * scale
    values["rhythm.alloc_peak_mb"] = max(alloc.get("extract-rhythm", [0.0]))
    values["audio.onset_alloc_peak_mb"] = max(alloc.get("detect-beats", [0.0]))
    values["metrics.pairs"] = median(pairs)
    values["inversion.mlp.probes"] = median(mlp_probes)
    values["inversion.attnpos.gradcheck_est_s"] = (
        values["inversion.attnpos.probes"] * values["inversion.attnpos.loss_s"]
    )
    values["cli.calls"] = sum(len(p["calls"]) for p in passes)
    _, by_command = end_to_end(passes, [])
    closure = {}
    for key in COMMAND_KEYS:
        row = by_key.get(key)
        values[f"cli.{key}_s"] = by_command.get(f"{key}_s", 0.0)
        values[f"cli.{key}.overhead_s"] = values[f"cli.{key}.tracing_s"] = 0.0
        if row:
            untraced, layer_self = median(row["untraced"]), median(row["layer_self"])
            overhead, tracing = median(row["overhead"]), median(row["tracing"])
            values[f"cli.{key}.overhead_s"] = overhead
            values[f"cli.{key}.tracing_s"] = tracing
            closure[key] = {
                "calls": len(row["untraced"]),
                "untraced_s": untraced,
                "layer_self_s": layer_self,
                "setup_s": setup_s,
                "overhead_s": overhead,
                "tracing_s": tracing,
                "residual_s": untraced - (layer_self + setup_s + overhead),
                "untraced_range_s": max(row["untraced"]) - min(row["untraced"]),
            }
    return values, closure


def closure_problems(closure, setup_times) -> list:
    """Commands whose spans do not add up to their untraced time.

    The spans run traced, so their sum exceeds the untraced time by the
    tracing cost inside the command: the residual (untraced minus the sum)
    should lie in [-tracing_s, 0]. Each side gets a slack for comparing
    different processes, some of them measured many seconds apart: the
    larger of the ranges of the setup samples and of the command's own
    untraced calls (how much a fresh process varies in this run), plus
    CLOSURE_SLACK of the untraced time. A command with fewer than
    CLOSURE_MIN_CALLS calls is not held to the band: one fresh process can
    be 20% off its median.
    """
    problems = []
    start_up_range = max(setup_times) - min(setup_times)
    for key, row in closure.items():
        slack = max(start_up_range, row["untraced_range_s"]) + CLOSURE_SLACK * row["untraced_s"]
        low = -(max(row["tracing_s"], 0.0) + slack)
        if row["overhead_s"] < 0:
            problems.append(f"closure {key}: negative cli overhead {row['overhead_s']:.4f} s")
        elif row["calls"] >= CLOSURE_MIN_CALLS and not low <= row["residual_s"] <= slack:
            problems.append(
                f"closure {key}: residual {row['residual_s']:+.4f} s outside [{low:.4f}, {slack:.4f}] s"
            )
    return problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "thread_pins": PINS,
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(metrics, by_command, quality, failed, attempted):
    print("end-to-end (median over passes; commands include their fresh interpreter)")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {fmt(metrics[name])} {unit}")
    for key in COMMAND_KEYS:
        value = by_command.get(f"{key}_s")
        print(f"  {key}_s = " + (f"{fmt(value)} s" if value is not None else "n/a (not in this workload)"))
    print(f"  failed_ops = {failed / attempted if attempted else 0.0:.6g} fraction ({failed} of {attempted} calls)")
    print(f"  align_f1 = " + (f"{fmt(quality['align_f1'])} ratio" if "align_f1" in quality else "n/a"))
    print(f"  tempo_err_bpm = " + (f"{fmt(quality['tempo_err_bpm'])} BPM" if "tempo_err_bpm" in quality else "n/a"))
    ratios = [v for k, v in quality.items() if k.startswith("train_loss_ratio")]
    print(f"  train_loss_ratio = " + (f"{fmt(max(ratios))} ratio (worst of {len(ratios)} runs)" if ratios else "n/a"))


def report_per_layer(values, closure, sizes):
    units = per_layer_units()
    notes = {name: spec[4] for name, spec in SPAN_COUNTS.items() if spec[4]}
    pose = sizes.get("pose", {})
    frames_mb = pose.get("frames", 0) * pose.get("joints", 0) * 3 * 8 / 1e6
    if values["rhythm.dense_mb"] and frames_mb:
        notes["rhythm.dense_mb"] += f"; {values['rhythm.dense_mb'] / frames_mb:.2f}x the {frames_mb:.3g} MB (T, J, 3) frames"
    wav = sizes.get("audio", {}).get("bytes", 0)
    if values["audio.onset_alloc_peak_mb"] and wav:
        per_file = wav / 1e6 / sizes.get("pairs", 1)
        notes["audio.onset_alloc_peak_mb"] = f"tracemalloc; {values['audio.onset_alloc_peak_mb'] / per_file:.1f}x the {per_file:.3g} MB WAV"
    notes["rhythm.alloc_peak_mb"] = "tracemalloc over the stages"
    notes["inversion.mlp.probes"] = "loss calls counted in gradcheck; 2 per coordinate"
    notes["inversion.attnpos.gradcheck_est_s"] = "computed: probes x loss_s; the whole attnpos gradcheck is skipped"
    print("per-layer (traced replay; timings are medians per call)")
    for name, unit in units.items():
        note = "not run by this workload" if values[name] == 0 else notes.get(name, "")
        print(f"  {name} = {fmt(values[name])} {unit}" + (f"  [{note}]" if note else ""))
    print("closure per command: layer self + setup_s + cli overhead vs untraced (medians per call)")
    for key, row in closure.items():
        total = row["layer_self_s"] + row["setup_s"] + row["overhead_s"]
        print(f"  {key}: {row['layer_self_s']:.4f} + {row['setup_s']:.4f} + {row['overhead_s']:.4f} = "
              f"{total:.4f} vs untraced {row['untraced_s']:.4f} s: residual {row['residual_s']:+.4f} s, "
              f"tracing overhead {row['tracing_s']:.4f} s, over {row['calls']} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("long-take", "clip-batch", "inversion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not (SRC / "kinebeat" / "cli.py").is_file():
        print(f"error: no kinebeat source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, make_workload, work, env) -> int:
    wl = make_workload(work, args.seed, args.smoke)
    runner = Runner(work, env, work / "spans")
    runner.spans_dir.mkdir()
    setup_times = runner.measure_setup()
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 2

    passes, probe_docs = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        pid = len(passes)
        passes.append(runner.run_pass(wl, args.trace, pid))
        if args.trace:
            for i, probe in enumerate(wl.probes):
                doc = runner.run_probe(probe, pid, runner.spans_dir / f"p{pid}probe{i}.json")
                if doc:
                    probe_docs.append(doc)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > args.seconds:
            break
    failures = runner.failures

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "sizes": wl.sizes,
        "passes": len(passes),
        "setup_samples_s": setup_times,
        "quality": wl.quality,
        "failures": failures,
    }
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, sizes {json.dumps(wl.sizes)}")
    print(f"environment {json.dumps(record['environment'])}")
    e2e, by_command = end_to_end(passes, setup_times)
    if args.trace:
        values, closure = per_layer(passes, probe_docs, e2e["setup_s"])
        failures += closure_problems(closure, setup_times)
        units = per_layer_units()
        record.update(per_layer=values, closure=closure)
        report_per_layer(values, closure, wl.sizes)
    else:
        values, units = e2e, END_TO_END_UNITS
        record.update(end_to_end=e2e, by_command=by_command,
                      per_pass=passes)
        report_end_to_end(e2e, by_command, wl.quality, len(failures), runner.attempted)
    for problem in failures:
        print(f"FAILED: {problem}")

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
