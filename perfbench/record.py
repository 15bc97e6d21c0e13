"""Run every workload of the qdesk benchmark and record the results.

    python3 perfbench/record.py

Runs each workload REPEATS times at seed 0 for BENCHMARK.json's
run_seconds, with tracing off and as often with the span recorder on,
alternating, each run in fresh processes. Prints every metric by name with
its unit and writes perfbench/baseline.json: the machine, each workload's
rationale (its "why" in BENCHMARK.json), median end-to-end and per-layer
metrics, error rate and outcomes, the tracing overhead (median traced minus
median untraced wall_s; compare it with the run-to-run spread before
reading it as a cost), whether the exact counts repeated across the traced
runs, and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

REPEATS = 3
SEED = 0

FK = ("fk_harmonic", "fk_quartic")
SMALL = ("moments.moments", "bell.chsh_value", "bell.mermin_assignment_search",
         "spin.hv_expectation", "spin.linear_fit_residual",
         "operators.gleason_additivity_check")

# per-layer metric (or span) -> the end-to-end metrics it should move, per workload
LAYER_MAP = {
    "feynman_kac.fk_mc_partition.ns_per_path_slice": {w: ["wall_s", "op_p50_s"] for w in FK},
    "feynman_kac.bound_check": {w: ["wall_s", "op_p50_s"] for w in FK},
    "feynman_kac.classical_partition": {w: ["wall_s", "op_p50_s"] for w in FK},
    "feynman_kac.tau_star": {w: ["wall_s", "op_p50_s"] for w in FK},
    "feynman_kac.spectral_partition.self_s": {w: ["wall_s", "op_p50_s"] for w in FK},
    "feynman_kac.bound_check.errors": {w: ["error_rate"] for w in FK + ("cli_mix",)},
    "phasespace.wigner_transform.ns_per_cell": {"phase_space": ["wall_s", "peak_rss_mb"]},
    "phasespace.weyl_quantize.ns_per_cell": {"phase_space": ["wall_s", "peak_rss_mb"]},
    "phasespace.gauss_smooth": {"phase_space": ["wall_s", "peak_rss_mb"]},
    "phasespace.to_momentum": {"phase_space": ["wall_s", "peak_rss_mb"]},
    "phasespace.grid_hamiltonian": {w: ["op_p50_s"] for w in FK},
    "phasespace.PhaseSpaceField.to_csv": {"cli_mix": ["op_tail_s"]},
    **{name: {"cli_mix": ["op_p50_s"]} for name in SMALL},
    "cli.import_s": {"cli_mix": ["op_p50_s"], **{w: ["setup_s"] for w in
                                                 ("fk_harmonic", "fk_quartic", "phase_space")}},
    "cli.run": {"cli_mix": ["op_p50_s"]},
    "cli.emit": {"cli_mix": ["op_p50_s"]},
}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return match.group(1) if match else platform.processor()


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _medians(runs: list[dict], units: dict) -> dict:
    return {name: {"value": statistics.median(r[name] for r in runs), "unit": unit}
            for name, unit in units.items()}


def _counts(per_layer: dict) -> dict:
    """The per-layer values that must repeat exactly for one seed."""
    return {name: value for name, value in per_layer.items()
            if run.per_layer_units()[name] == "count"}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    record = {"machine": machine(), "seed": SEED, "seconds": seconds,
              "workloads": {}, "layer_map": LAYER_MAP}
    for workload in run.WORKLOADS:
        # plain and traced runs alternate, so slow drift in machine speed
        # weighs on both sides of the tracing overhead alike
        plain, traced = [], []
        for _ in range(REPEATS):
            plain.append(run.measure(workload, SEED, seconds, 0))
            traced.append(run.measure(workload, SEED, seconds, 1))
            for out in (plain[-1], traced[-1]):
                print("\n".join(run.report_lines(out)), flush=True)
        overhead = (statistics.median(t["end_to_end"]["wall_s"] for t in traced)
                    - statistics.median(p["end_to_end"]["wall_s"] for p in plain))
        repeat = all(_counts(t["per_layer"]) == _counts(traced[0]["per_layer"])
                     for t in traced)
        print(f"  tracing overhead {overhead:.6g} s; exact counts repeat: {repeat}")
        first = plain[0]
        record["workloads"][workload] = {
            "why": why[workload],
            "attempted": first["attempted"],
            "failed": first["failed"],
            "correct": all(p["correct"] for p in plain + traced),
            "error_rate": first["error_rate"],
            "outcomes": first["outcomes"],
            "op_tail_s": [p["op_tail"] for p in plain],
            "end_to_end": _medians([p["end_to_end"] for p in plain], run.END_TO_END),
            "per_layer": _medians([t["per_layer"] for t in traced], run.per_layer_units()),
            "plain_wall_s": [p["end_to_end"]["wall_s"] for p in plain],
            "traced_wall_s": [t["end_to_end"]["wall_s"] for t in traced],
            "tracing_overhead_s": overhead,
            "exact_counts_repeat": repeat,
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
