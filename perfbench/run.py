"""qdesk benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py): fk_harmonic, fk_quartic, phase_space, cli_mix.
Run from the root of a qdesk checkout; the package is imported from its
src/ directory, nothing is installed.

The workload runs in a fresh worker process (worker.py), whole passes of
its fixed operation list for S seconds. Set-up is measured from the start of
that process until its first operation is ready, in the worker and in
SETUP_PROBES extra processes that only set up, half of them before the
worker and half after; setup_s is their median.

Human-readable lines come first; the last line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"attempted" counts operations, "failed" those that raised or failed a
check, so failed/attempted is the error rate. "correct" is false when an
operation returned an output that fails its check. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
run with the span recorder on.

Exits 2 without a result when the checkout has no qdesk sources, and 1 when
the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with 10 ops above it
TAIL_MIN_OPS = 2 * TAIL_BEYOND  # ... reported when that percentile is >= p50

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {}
    for name in spans.SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    for name, (work, _) in spans.WORK.items():
        units[f"{name}.{work}"] = "count"
        units[f"{name}.ns_per_{work[:-1]}"] = "ns"
    units["cli.import_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


class BenchError(Exception):
    pass


def _start_worker(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=PROBE_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if not ready:
        raise BenchError(f"worker for {workload} never became ready")
    return ready[0] - started, lines


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload once; metrics and details as a dict."""
    def probes(count):
        return [_start_worker(workload, seed, 0, 0, setup_only=True)[0]
                for _ in range(count)]

    # probes before and after the run, so set-up samples span its time
    setups = probes(SETUP_PROBES // 2)
    setup, lines = _start_worker(workload, seed, seconds, trace)
    setups += [setup] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    result = json.loads(lines[-1])

    records = result["records"]
    latencies = sorted(r["latency_s"] for r in records)
    n_ops = len(latencies)
    outcomes: dict = {}
    for r in records:
        key = r["outcome"]
        if key != "pass":
            key += f": {r['op']}: {r['detail']}"
        outcomes[key] = outcomes.get(key, 0) + 1
    failed = sum(r["outcome"] != "pass" for r in records)
    tail = None
    if n_ops >= TAIL_MIN_OPS:
        tail = {"value_s": latencies[n_ops - TAIL_BEYOND - 1],
                "percentile": math.floor(100 * (n_ops - TAIL_BEYOND) / n_ops),
                "ops": n_ops}
    out = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": n_ops, "failed": failed,
        "correct": not any(r["outcome"] == "check_failed" for r in records),
        "error_rate": failed / n_ops,
        "passes": len(result["passes"]),
        "op_tail": tail,
        "outcomes": outcomes,
        "end_to_end": {
            "wall_s": statistics.median(result["passes"]),
            "op_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        },
    }
    if trace:
        out["per_layer"] = _layer_metrics(result, out["end_to_end"]["wall_s"])
    return out


def _layer_metrics(result: dict, wall_s: float) -> dict:
    summary = result["spans"]
    metrics = {}
    for name in spans.SPANS:
        entry = summary[name]
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.errors"] = entry["errors"]
    for name, (work, _) in spans.WORK.items():
        amount = summary[name]["work"]
        metrics[f"{name}.{work}"] = amount
        metrics[f"{name}.ns_per_{work[:-1]}"] = (
            1e9 * summary[name]["self_s"] / amount if amount else 0.0)
    imports = result["import_s"]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["trace.wall_s"] = wall_s
    return metrics


def report_lines(out: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    e2e = out["end_to_end"]
    lines = [f"workload {out['workload']} seed {out['seed']} trace {out['trace']}: "
             f"{out['attempted']} ops in {out['passes']} passes"]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<12} {e2e[name]:.6g} {unit}")
    tail = out["op_tail"]
    if tail:
        lines.append(f"  {'op_tail_s':<12} {tail['value_s']:.6g} s "
                     f"(p{tail['percentile']} of {tail['ops']} ops)")
    else:
        lines.append(f"  {'op_tail_s':<12} not reported "
                     f"({out['attempted']} ops, needs {TAIL_MIN_OPS})")
    lines.append(f"  {'error_rate':<12} {out['error_rate']:.6g} "
                 f"({out['failed']}/{out['attempted']} ops)")
    for key, count in sorted(out["outcomes"].items()):
        lines.append(f"    {count:>4} x {key}")
    for name, value in out.get("per_layer", {}).items():
        if value:
            lines.append(f"  {name} {value:.6g} {per_layer_units()[name]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qdesk benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdesk" / "__init__.py").is_file():
        print(f"no qdesk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(out)))
    units = per_layer_units() if args.trace else END_TO_END
    values = out["per_layer"] if args.trace else out["end_to_end"]
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
