"""Self-tests of the qdesk benchmark: seeding, the recorder and the oracle.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _comparable(record: dict) -> dict:
    return {k: record[k] for k in ("op", "outcome", "detail", "output")}


@pytest.mark.parametrize("workload, picks", [
    ("fk_harmonic", (0, 1)),  # hbar = 1 passes today, hbar = 0.5 raises
    ("fk_quartic", (0,)),
    ("phase_space", (0,)),
    ("cli_mix", (0, 8)),  # inin, and fk at hbar = 0.5, which exits 2 today
])
def test_same_seed_gives_same_outputs_and_outcomes(workload, picks, tmp_path):
    runs = []
    for _ in range(2):
        runner = workloads.Runner(workload, tmp_path)
        runner.prepare_oracle()
        ops = workloads.make_pass(workload, 7, 0)
        runs.append([_comparable(runner.run(ops[i])) for i in picks])
    assert runs[0] == runs[1]
    assert all(r["outcome"] in ("pass", "raised") for r in runs[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload):
    assert workloads.make_pass(workload, 1, 0) == workloads.make_pass(workload, 1, 0)
    assert workloads.make_pass(workload, 1, 0) != workloads.make_pass(workload, 2, 0)


def _bindings():
    import qdesk
    from qdesk.phasespace import PhaseSpaceField

    found = {(name, attr): value for name, module in sys.modules.items()
             if name == "qdesk" or name.startswith("qdesk.")
             for attr, value in vars(module).items()}
    found[("PhaseSpaceField", "to_csv")] = PhaseSpaceField.to_csv
    assert qdesk.__file__.startswith(str(ROOT / "src"))
    return found


def test_recorder_is_transparent_and_removes_its_wrappers():
    import qdesk.cli  # noqa: F401 - every traced module is loaded
    from qdesk import feynman_kac as fk
    from qdesk import phasespace as ps

    def compute():
        v = fk.Potential.polynomial((0.0, 0.0, 0.5))
        report = fk.bound_check(v, 2.0, n_paths=2000, seed=3)
        psi = ps.gaussian_packet(ps.GridSpec(64, 24.0), 1.0, gamma=0.2)
        w = ps.wigner_transform(psi)
        return report.to_json(), w.values, ps.weyl_quantize(w)

    before = _bindings()
    plain = compute()
    with spans.Recorder() as recorder:
        traced = compute()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    assert plain[0] == traced[0]
    assert all(np.array_equal(a, b) for a, b in zip(plain[1:], traced[1:]))

    names = [s[0] for s in recorder.spans]
    parents = {names[i]: names[s[3]] for i, s in enumerate(recorder.spans) if s[3] >= 0}
    # grid_hamiltonian is reached through feynman_kac's own binding
    assert parents["phasespace.grid_hamiltonian"] == "feynman_kac.spectral_partition"
    assert parents["feynman_kac.fk_mc_partition"] == "feynman_kac.bound_check"
    summary = spans.summary(recorder.spans)
    assert summary["feynman_kac.fk_mc_partition"]["work"] == 64 * 2000
    assert summary["phasespace.wigner_transform"]["work"] == 64 ** 2


@pytest.mark.parametrize("hbar, m", workloads.UNITS)
def test_eigen_solve_oracle_matches_harmonic_closed_form(hbar, m):
    z = workloads.fd_partition(workloads.POTENTIALS["fk_harmonic"], workloads.BETA, hbar, m)
    exact = workloads.harmonic_partition(workloads.BETA, hbar, m)
    assert abs(z - exact) <= 1e-8 * exact


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    summary = json.loads(proc.stdout.splitlines()[-1])["spans"]
    return {name: (s["calls"], s["errors"], s["work"]) for name, s in summary.items()}


@pytest.mark.parametrize("workload", ["fk_harmonic", "cli_mix"])
def test_exact_counts_repeat(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert any(calls for calls, _, _ in first.values())


def test_benchmark_json_lists_the_metrics_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_fails_without_qdesk_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fk_harmonic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

