"""Run one workload of the qdesk benchmark in this (fresh) process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints "ready <time.monotonic()>" as soon as the first operation is ready
(qdesk imported, qdesk.cli too for cli_mix, inputs built), so the parent can
measure set-up from the moment it started this process. Unless --setup-only, it then computes the
oracle, runs whole passes until S seconds have gone by (at least one pass),
writes the operation records and spans under .perfbench-out/ and prints one
JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb(workload: str) -> float:
    # cli_mix runs its operations in child processes; ru_maxrss is in KiB
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None) -> int:
    args = _parse(argv)
    OUT_DIR.mkdir(exist_ok=True)
    in_process = args.workload != "cli_mix"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = workloads.Runner(args.workload, Path(tmp), bool(args.trace))
        import qdesk
        if Path(qdesk.__file__).resolve().parent != ROOT / "src" / "qdesk":
            raise SystemExit(f"qdesk imported from {qdesk.__file__}, not this checkout")
        ops = workloads.make_pass(args.workload, args.seed, 0)
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        runner.prepare_oracle()

        # cli_mix children record their own spans (cli_child.py)
        recorder = spans.Recorder()
        with recorder if args.trace and in_process else contextlib.nullcontext():
            records, passes = [], []
            start = time.perf_counter()
            while True:
                done = [runner.run(op) for op in ops]
                records += done
                passes.append(sum(r["latency_s"] for r in done))
                if time.perf_counter() - start >= args.seconds:
                    break
                ops = workloads.make_pass(args.workload, args.seed, len(passes))
        recorded = recorder.spans if in_process else runner.child_spans

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "records": records,
        "peak_rss_mb": _peak_rss_mb(args.workload),
    }
    if args.trace:
        result["spans"] = spans.summary(recorded, len(passes))
        result["import_s"] = runner.import_s
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, raw_spans=recorded)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
