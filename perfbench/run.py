"""Verdict benchmark for `gaudin verify`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Each call is one `gaudin verify` run in a fresh interpreter through the public
entry point ``gaudin.cli.main``, as a CLI user pays for it: cold
straightening cache, cached bytecode, one process, no PYTHON* variables and
no GAUDIN_WORKERS in the environment.  Calls run as a closed loop with one client.  After the calls a
run requires, another starts only while half the median call so far still
fits in the remaining ``--seconds``, so a run lasts about ``--seconds``.

With ``--trace 0`` a run reports, as medians over its calls:
  verdict_s    wall seconds from launch to exit
  cpu_s        user + system CPU seconds of the call's process tree
  peak_rss_mb  maximum resident set size of the call, in MiB
  setup_s      launch until the call into gaudin.cli.main (interpreter start
               plus import); setup-only launches add samples
and prints fail_ratio = failed / attempted beside them.  A call fails unless
it exits 0, its report has "pass": true, no gating check is false and the
report echoes the requested suite, seed and evaluation points.  All reports
of one run must be byte-identical.

With ``--trace 1`` untraced and traced calls alternate (at least one
untraced and two traced).  Traced calls wrap public functions from this
directory (see spans.py) and report per-layer self time, total time and call
counts as medians over the traced calls.  The work counters must repeat
exactly across traced calls, and the self times plus the launch and exit
intervals must add up to the traced wall time.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEFAULT_SEED = 12345
SETUP_PROBES = 10
CALL_TIMEOUT_S = 90.0

WORKLOADS = {
    "talalaev-r3n2": ("talalaev", "--r", "3", "--sites", "2"),
    "poisson-s5": ("poisson", "--sites", "5"),
    "manin-r3": ("manin", "--r", "3"),
    "glue-r3": ("glue", "--r", "3"),
}

END_TO_END = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Counters, besides the span call counts, that must repeat exactly across
# traced calls of one seed.
WORK_COUNTERS = {
    spans.PAIRS: "count",
    "algebra.straighten_cache_words": "count",
    "reports.report_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in spans.KEYS:
        units[f"{key}_s"] = "s"
        units[f"{key}_total_s"] = "s"
        units[f"{key}_calls"] = "count"
    units.update(WORK_COUNTERS)
    units.update({"process.setup_s": "s", "process.exit_s": "s",
                  "trace.verdict_s": "s", "trace.overhead_s": "s"})
    return units


def eval_points(seed: int) -> tuple[int, int]:
    """Two distinct integers in 2..9, away from the poles 0 and 1.

    The default seed gives 5, 7, the CLI's own default.
    """
    a = 2 + (seed + 2) % 8
    b = 2 + (a - 1 + (seed // 8 + 5) % 7) % 8
    return a, b


def verify_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    argv = ["verify", *WORKLOADS[workload], "--seed", str(seed), "--out", str(out_dir)]
    if workload.startswith("talalaev"):
        argv += ["--eval", ",".join(map(str, eval_points(seed)))]
    return argv


@dataclass
class Call:
    """Timing, resource usage and outcome of one child process."""

    launched: float
    ended: float
    cpu_s: float
    peak_rss_mb: float
    rc: int
    marks: dict
    error: str | None = None
    report_sha256: str | None = None
    report_bytes: int = 0
    traced: bool = False

    @property
    def verdict_s(self) -> float:
        return self.ended - self.launched

    @property
    def setup_s(self) -> float:
        return self.marks["main_start"] - self.launched

    @property
    def exit_s(self) -> float:
        return self.ended - self.marks["main_end"]


def launch(run_dir: Path, argv: list[str], traced: bool = False) -> Call:
    """Start child.py, reap it with wait4 for its rusage, and read its marks."""
    marks_path = run_dir / "marks.json"
    marks_path.unlink(missing_ok=True)
    # the interpreter runs with default settings whatever the caller's
    # environment (so bytecode is cached, as for an installed package), and
    # without GAUDIN_WORKERS fan-out
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "GAUDIN_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "child.py"), str(marks_path),
           "1" if traced else "0", *argv]
    with open(run_dir / "stderr.log", "ab") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    call = Call(launched, ended, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, {}, traced=traced)
    try:
        call.marks = json.loads(marks_path.read_text())
        module = Path(call.marks["module"]).resolve()
    except (OSError, ValueError, KeyError):
        call.error = f"no timing marks (exit code {proc.returncode})"
    else:
        if SRC not in module.parents:
            call.error = f"imported gaudin from {module}, not from {SRC}"
    return call


def check_report(call: Call, run_dir: Path, workload: str, seed: int) -> None:
    """Set call.error unless the call left a passing report for this input."""
    if call.error is not None:
        return
    suite = WORKLOADS[workload][0]
    path = run_dir / f"verify-{suite}.json"
    try:
        raw = path.read_bytes()
        path.unlink()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        call.error = f"no readable report (exit code {call.rc}): {exc}"
        return
    call.report_sha256 = hashlib.sha256(raw).hexdigest()
    call.report_bytes = len(raw)
    gating = [c for c in doc.get("checks", []) if c.get("pass") is not None]
    config = doc.get("config", {})
    problems = []
    if call.rc != 0:
        problems.append(f"exit code {call.rc}")
    if doc.get("command") != "verify" or doc.get("suite") != suite:
        problems.append("report is for another command")
    if config.get("seed") != seed:
        problems.append(f"report seed {config.get('seed')} != {seed}")
    if workload.startswith("talalaev") and \
            config.get("eval_points") != [str(u) for u in eval_points(seed)]:
        problems.append(f"report eval points {config.get('eval_points')}")
    if doc.get("pass") is not True:
        problems.append("verdict is not PASS")
    if not gating or any(c["pass"] is False for c in gating):
        problems.append("a gating check failed or none ran")
    if problems:
        call.error = "; ".join(problems)


def run_calls(run_dir: Path, workload: str, seed: int, seconds: float,
              trace: bool) -> tuple[list[Call], list[Call]]:
    """Setup probes, then the closed loop of verify calls."""
    deadline = time.monotonic() + seconds
    warm = launch(run_dir, ["probe"])  # compiles bytecode in a fresh checkout
    if warm.error is not None:
        raise SystemExit(f"error: cannot start gaudin: {warm.error}; "
                         f"see {run_dir / 'stderr.log'}")
    probes = [launch(run_dir, ["probe"]) for _ in range(SETUP_PROBES)]
    # three calls at least, so that the median rejects a single stalled call
    required = [False, True, True] if trace else [False, False, False]
    argv = verify_argv(workload, seed, run_dir)
    calls: list[Call] = []
    while True:
        i = len(calls)
        if i < len(required):
            traced = required[i]
        elif time.monotonic() + statistics.median(c.verdict_s for c in calls) / 2 > deadline:
            break
        else:
            traced = trace and i % 2 == 0
        call = launch(run_dir, argv, traced)
        check_report(call, run_dir, workload, seed)
        calls.append(call)
        print(f"  call {i + 1:2d} {'traced  ' if traced else 'untraced'} "
              f"verdict {call.verdict_s:7.3f} s  cpu {call.cpu_s:7.3f} s  "
              f"rss {call.peak_rss_mb:6.1f} MiB  "
              f"{'ok' if call.error is None else 'FAIL: ' + call.error}", flush=True)
    return probes, calls


def summarize_e2e(probes: list[Call], ok: list[Call]) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics and their sample counts."""
    if not ok:
        return {}, {}
    setups = [c.setup_s for c in probes + ok]
    values = {
        "verdict_s": statistics.median(c.verdict_s for c in ok),
        "cpu_s": statistics.median(c.cpu_s for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        "setup_s": statistics.median(setups),
    }
    counts = {name: len(ok) for name in values}
    counts["setup_s"] = len(setups)
    return values, counts


def summarize_trace(ok: list[Call]) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced calls, and self-check problems."""
    traced = [c for c in ok if c.traced]
    untraced = [c for c in ok if not c.traced]
    if len(traced) < 2 or not untraced:
        return {}, ["too few successful calls for the trace self-check"]
    problems = []
    rows = []
    for c in traced:
        summary = spans.summarize(c.marks["spans"])
        row = {}
        for key, agg in summary.items():
            row[f"{key}_s"] = agg["self_s"]
            row[f"{key}_total_s"] = agg["total_s"]
            row[f"{key}_calls"] = agg["calls"]
        row[spans.PAIRS] = c.marks["counters"].get(spans.PAIRS, 0)
        row["algebra.straighten_cache_words"] = c.marks["straighten_cache_words"]
        row["reports.report_bytes"] = c.report_bytes
        row["process.setup_s"] = c.setup_s
        row["process.exit_s"] = c.exit_s
        row["trace.verdict_s"] = c.verdict_s
        accounted = c.setup_s + c.exit_s + sum(a["self_s"] for a in summary.values())
        if abs(accounted - c.verdict_s) > 1e-3:
            problems.append(f"self times add up to {accounted:.4f} s, "
                            f"not the traced {c.verdict_s:.4f} s")
        if summary[spans.ROOT]["calls"] != 1:
            problems.append("the root span did not run exactly once")
        rows.append(row)
    for key in rows[0]:
        if key.endswith("_calls") or key in WORK_COUNTERS:
            values = {row[key] for row in rows}
            if len(values) != 1:
                problems.append(f"work counter {key} differs across traced "
                                f"calls: {sorted(values)}")
    metrics = {key: value if key.endswith("_calls") or key in WORK_COUNTERS
               else statistics.median(row[key] for row in rows)
               for key, value in rows[0].items()}
    metrics["trace.overhead_s"] = (metrics["trace.verdict_s"]
                                   - statistics.median(c.verdict_s for c in untraced))
    return metrics, problems


def check_declared(names, trace: bool) -> None:
    """The emitted metric names must be those declared in BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"] for m in json.loads(path.read_text())[section]}
    if declared != set(names):
        raise SystemExit(f"error: metrics {sorted(set(names) ^ declared)} are "
                         f"emitted or declared in {section}, not both")


def reference_sha(workload: str) -> str | None:
    return json.loads((HERE / "report_sha256.json").read_text()).get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUNS / f"{workload}-{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "stderr.log").unlink(missing_ok=True)
    print(f"workload {workload}  seed {seed}  "
          f"gaudin {' '.join(verify_argv(workload, seed, run_dir))}")
    probes, calls = run_calls(run_dir, workload, seed, seconds, trace)
    ok = [c for c in calls if c.error is None]
    failed = len(calls) - len(ok)
    problems = []
    shas = {c.report_sha256 for c in ok}
    if len(shas) > 1:
        problems.append("reports of one seed differ between calls")
    if trace:
        units = per_layer_units()
        values, trace_problems = summarize_trace(ok)
        problems += trace_problems
        for name, value in values.items():
            print(f"  {name:48s} {value:14.6f} {units[name]}")
    else:
        units = END_TO_END
        values, counts = summarize_e2e(probes, ok)
        for name, value in values.items():
            print(f"  {name:12s} {value:10.4f} {units[name]:4s} "
                  f"(median of {counts[name]})")
        print(f"  {'fail_ratio':12s} {failed / len(calls):10.4f}      "
              f"({failed} of {len(calls)} calls failed)")
    if len(shas) == 1:
        sha = shas.pop()
        note = ""
        if seed == DEFAULT_SEED:
            note = ("  (matches the recorded report)" if sha == reference_sha(workload)
                    else "  (DIFFERS from the recorded report; not gating)")
        print(f"  report sha256 {sha}{note}")
    for problem in problems:
        print(f"  self-check FAILED: {problem}")
    check_declared(units, trace)
    return {
        "correct": failed == 0 and not problems and values.keys() == units.keys(),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaudin" / "cli.py").is_file():
        sys.stderr.write(f"error: no gaudin sources under {SRC}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
