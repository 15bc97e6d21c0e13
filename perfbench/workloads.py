"""Workloads of the qdesk benchmark: seeded operations, oracles and checks.

A workload is a fixed list of operations, one pass, rebuilt for every pass
from the workload seed and the pass index. The benchmark runs whole passes
in a closed loop with one client: one operation at a time, from a single
process. Every operation is checked against an oracle that uses numpy and
scipy only, never a qdesk function.

An operation ends in one of three outcomes: "pass", "check_failed" (it
returned an output that fails a check) or "raised" (it raised, or the CLI
exited with code 2 or 3, before giving an output).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import extend

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fk_harmonic", "fk_quartic", "phase_space", "cli_mix")

# Feynman-Kac operations use the settings of acceptance criteria 04 and 05.
BETA, SLICES, PATHS = 2.0, 64, 100_000
UNITS = ((1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 2.0))  # (hbar, m)
POTENTIALS = {"fk_harmonic": (0.0, 0.0, 0.5),
              "fk_quartic": (0.0, 0.0, 0.0, 0.0, 0.25)}
# The gate on the MC estimate is 5 standard errors: wide enough for the
# estimator's time-slicing bias at 64 slices, so it does not flake the way a
# 3-sigma gate would over thousands of operations.
MC_SIGMAS = 5.0
SPECTRAL_RTOL = 1e-6

# Phase-space grids (n, length, hbar), one operation each per pass. The last
# repeats the second, so the per-grid Fourier cache is reused within the
# first pass; the others are new and make it grow. Three of the five are
# n = 1024, so the median operation is always an n = 1024 one.
GRIDS = ((512, 32.0, 1.0), (1024, 32.0, 0.5), (512, 32.0, 2.0),
         (1024, 48.0, 2.0), (1024, 32.0, 0.5))
ALPHA2 = 1.0
MARGINAL_TOL = 1e-6
FIELD_TOL = 1e-9  # Wigner function and Weyl round trip against closed forms
HUSIMI_FLOOR = -1e-8
CHECK_ROWS = 128

CLI_TIMEOUT_S = 120
TSIRELSON = 2 * math.sqrt(2)


@dataclass
class Op:
    """One operation: a label and the inputs generated from the seed."""

    label: str
    params: dict


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of pass ``index``; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload in POTENTIALS:
        return [Op(f"bound_check hbar={h} m={m}",
                   {"hbar": h, "m": m, "seed": rng.getrandbits(32)})
                for h, m in UNITS]
    if workload == "phase_space":
        return [Op(f"round_trip n={n} L={length} hbar={h}",
                   {"n": n, "length": length, "hbar": h,
                    "gamma": rng.uniform(-0.5, 0.5), "q0": rng.uniform(-2.0, 2.0),
                    "p0": rng.uniform(-1.0, 1.0)})
                for n, length, h in GRIDS]
    if workload == "cli_mix":
        # Scenarios with a statistical 3-sigma gate (fk, hv) run at the CLI's
        # default seed, as a user would type them; the rest vary with the seed.
        werner = round(rng.uniform(0.75, 1.0), 6)
        argvs = [
            ["--scenario", "inin", "--seed", str(rng.getrandbits(32))],
            ["--scenario", "bell"],
            ["--scenario", "bell", "--state", f"werner:{werner}"],
            ["--scenario", "mermin"],
            ["--scenario", "gleason", "--seed", str(rng.getrandbits(32))],
            ["--scenario", "hv"],
            ["--scenario", "entropic"],
            ["--scenario", "fk", "--paths", "20000"],
            ["--scenario", "fk", "--paths", "20000", "--hbar", "0.5"],
            ["--scenario", "wigner", "--grid-n", "1024"],
            ["--scenario", "wigner", "--grid-n", "512", "--format", "csv",
             "--out", "{out}"],
        ]
        return [Op(" ".join(a[1:]).replace("--", ""), {"argv": a}) for a in argvs]
    raise ValueError(f"unknown workload {workload!r}")


def fd_partition(coeffs, beta: float, hbar: float, m: float,
                 half_width: float = 12.0, n: int = 4000) -> float:
    """tr e^{-beta H} for H = p^2/(2m) + v(q), v a polynomial (ascending
    coefficients), from three-point finite-difference eigenvalues on n, 2n
    and 4n interior points of [-half_width, half_width], combined by two
    Richardson steps. Levels above 60/beta above the potential's minimum
    carry weight below e^-60 and are left out."""
    from scipy.linalg import eigh_tridiagonal

    sums = []
    for k in (1, 2, 4):
        q = np.linspace(-half_width, half_width, n * k + 2)[1:-1]
        h = q[1] - q[0]
        t = hbar ** 2 / (2 * m * h * h)
        v = np.polynomial.polynomial.polyval(q, coeffs)
        low = float(v.min())
        levels = eigh_tridiagonal(2 * t + v, np.full(len(q) - 1, -t), eigvals_only=True,
                                  select="v", select_range=(low - 1.0, low + 60.0 / beta))
        sums.append(float(np.exp(-beta * levels).sum()))
    r1, r2 = (4 * sums[1] - sums[0]) / 3, (4 * sums[2] - sums[1]) / 3
    return (16 * r2 - r1) / 15


def harmonic_partition(beta: float, hbar: float, m: float) -> float:
    """Closed form 1/(2 sinh(beta hbar omega/2)) for v = q^2/2, omega = 1/sqrt(m)."""
    return 1.0 / (2.0 * math.sinh(beta * hbar / (2.0 * math.sqrt(m))))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:80]}"


class Runner:
    """Runs and checks the operations of one workload in this process.

    Construction is the workload's set-up: it imports what the operations
    call and builds their fixed inputs. ``prepare_oracle`` computes the
    references; call it after set-up is measured and before timing."""

    def __init__(self, workload: str, tmpdir: Path | None = None, trace: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.tmpdir = tmpdir
        self.trace = trace
        self.oracle: dict = {}
        self.child_spans: list = []
        self.import_s: list[float] = []
        if workload in POTENTIALS:
            from qdesk import feynman_kac
            self.fk = feynman_kac
            self.potential = feynman_kac.Potential.polynomial(POTENTIALS[workload])
        elif workload == "phase_space":
            from qdesk import phasespace
            self.ps = phasespace
        else:
            # the operations run in child processes, but set-up still
            # imports the module each of them starts with
            import qdesk.cli  # noqa: F401

    def prepare_oracle(self):
        if self.workload == "fk_harmonic":
            self.oracle = {u: harmonic_partition(BETA, *u) for u in UNITS}
        elif self.workload == "fk_quartic":
            self.oracle = {u: fd_partition(POTENTIALS["fk_quartic"], BETA, *u)
                           for u in UNITS}

    def run(self, op: Op) -> dict:
        """Execute ``op``, time it, check it and return its record."""
        start = time.perf_counter()
        try:
            output = self.execute(op)
        except Exception as exc:  # a raising operation is a measured outcome
            latency = time.perf_counter() - start
            return {"op": op.label, "latency_s": latency, "outcome": "raised",
                    "detail": _describe(exc), "output": None}
        latency = time.perf_counter() - start
        outcome, detail, digest = self.check(op, output)
        return {"op": op.label, "latency_s": latency, "outcome": outcome,
                "detail": detail, "output": digest}

    def execute(self, op: Op):
        p = op.params
        if self.workload in POTENTIALS:
            return self.fk.bound_check(self.potential, BETA, p["m"], p["hbar"],
                                       m_slices=SLICES, n_paths=PATHS, seed=p["seed"])
        if self.workload == "phase_space":
            ps = self.ps
            spec = ps.GridSpec(p["n"], p["length"], p["hbar"])
            psi = ps.gaussian_packet(spec, ALPHA2, gamma=p["gamma"], q0=p["q0"], p0=p["p0"])
            wigner = ps.wigner_transform(psi)
            psi_hat = ps.to_momentum(psi)
            husimi = ps.gauss_smooth(wigner, spec.hbar / 2, spec.hbar / 2)
            kernel = ps.weyl_quantize(wigner)
            return wigner.values, psi_hat, husimi.values, kernel
        return self._execute_cli(op)

    def _execute_cli(self, op: Op):
        argv = list(op.params["argv"])
        csv_path = None
        if "{out}" in argv:
            csv_path = self.tmpdir / f"field-{time.monotonic_ns()}.csv"
            argv[argv.index("{out}")] = str(csv_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
        span_path = None
        if self.trace:
            span_path = self.tmpdir / f"spans-{time.monotonic_ns()}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_path), *argv]
        else:
            cmd = [sys.executable, "-m", "qdesk.cli", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if span_path is not None and span_path.exists():
            recording = json.loads(span_path.read_text())
            span_path.unlink()
            self.import_s.append(recording["import_s"])
            extend(self.child_spans, recording["spans"])
        return proc, csv_path

    def check(self, op: Op, output) -> tuple[str, str, dict]:
        """(outcome, detail, digest) for an operation that returned."""
        if self.workload in POTENTIALS:
            failures, digest = self._check_fk(op, output)
        elif self.workload == "phase_space":
            failures, digest = self._check_phase(op, output)
        else:
            return self._check_cli(op, output)
        return ("check_failed" if failures else "pass"), ",".join(failures), digest

    def _check_fk(self, op: Op, report):
        ref = self.oracle[(op.params["hbar"], op.params["m"])]
        failures = []
        if not report.z_lower - 1e-8 <= ref <= report.z_upper + 1e-8:
            failures.append("sandwich")
        if abs(report.mc_estimate - ref) > MC_SIGMAS * report.mc_stderr:
            failures.append("mc_within_5_stderr")
        if abs(report.spectral_reference - ref) > SPECTRAL_RTOL * ref:
            failures.append("spectral_matches_oracle")
        return failures, report.to_json()

    def _check_phase(self, op: Op, output):
        w, psi_hat, husimi, kernel = output
        p = op.params
        n, hbar, gamma, q0, p0 = p["n"], p["hbar"], p["gamma"], p["q0"], p["p0"]
        dq = p["length"] / n
        dp = 2 * math.pi * hbar / p["length"]
        q = -p["length"] / 2 + dq * np.arange(n)
        mom = dp * (np.arange(n) - n // 2)
        x = q - q0
        # closed forms for the chirped Gaussian packet
        phi = ((2 * math.pi * ALPHA2) ** -0.25 * np.exp(-x ** 2 / (4 * ALPHA2))
               * np.exp(1j * (gamma * x ** 2 + p0 * x) / hbar))
        var_p = hbar ** 2 / (4 * ALPHA2) + 4 * gamma ** 2 * ALPHA2
        rho_p = np.exp(-(mom - p0) ** 2 / (2 * var_p)) / math.sqrt(2 * math.pi * var_p)
        rho_q = np.abs(phi) ** 2
        # n x n comparisons go in row blocks, so the check adds little to
        # the peak memory of the operations it checks
        w_error = round_trip_error = 0.0
        for rows in (slice(lo, lo + CHECK_ROWS) for lo in range(0, n, CHECK_ROWS)):
            w_exact = 2 * np.exp(-x[None, :] ** 2 / (2 * ALPHA2)
                                 - (2 * ALPHA2 / hbar ** 2)
                                 * (mom[rows, None] - p0 - 2 * gamma * x[None, :]) ** 2)
            w_error = max(w_error, float(np.max(np.abs(w[rows] - w_exact))))
            round_trip_error = max(round_trip_error, float(np.max(np.abs(
                kernel[rows] - np.outer(phi[rows], phi.conj())))))
        digest = {
            "w_error": w_error,
            "q_marginal_error": float(np.max(np.abs(
                w.sum(axis=0) * dp / (2 * math.pi * hbar) - rho_q))),
            "p_marginal_error": float(np.max(np.abs(
                w.sum(axis=1) * dq / (2 * math.pi * hbar) - rho_p))),
            "momentum_error": float(np.max(np.abs(np.abs(psi_hat) ** 2 - rho_p))),
            "w_max_abs": float(np.max(np.abs(w))),
            "husimi_min": float(husimi.min()),
            "round_trip_error": round_trip_error,
        }
        failures = [name for name, ok in (
            ("wigner_closed_form", digest["w_error"] <= FIELD_TOL),
            ("marginals", max(digest["q_marginal_error"], digest["p_marginal_error"],
                              digest["momentum_error"]) <= MARGINAL_TOL),
            ("magnitude_bound", digest["w_max_abs"] <= 2 + 1e-6),
            ("husimi_nonnegative", digest["husimi_min"] >= HUSIMI_FLOOR),
            ("weyl_round_trip", digest["round_trip_error"] <= FIELD_TOL),
        ) if not ok]
        return failures, digest

    def _check_cli(self, op: Op, output) -> tuple[str, str, dict]:
        proc, csv_path = output
        digest = {"returncode": proc.returncode}
        if proc.returncode in (2, 3):
            lines = proc.stderr.strip().splitlines() or [""]
            return "raised", f"exit {proc.returncode}: {lines[-1][:80]}", digest
        if proc.returncode != 0:
            return "check_failed", f"exit {proc.returncode}", digest
        if csv_path is not None:
            with open(csv_path, newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh))
            csv_path.unlink()
            n = int(op.params["argv"][op.params["argv"].index("--grid-n") + 1])
            digest["csv_rows"] = rows
            ok = rows == n * n + 1
            return ("pass", "", digest) if ok else ("check_failed", "csv_rows", digest)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return "check_failed", "json", digest
        results = report["results"]
        digest["checks"] = report["checks"]
        failures = [name for name, ok in report["checks"].items() if not ok]
        failures += [name for name, ok in self._cli_oracle(op, results) if not ok]
        return ("check_failed" if failures else "pass"), ",".join(failures), digest

    @staticmethod
    def _cli_oracle(op: Op, results: dict):
        """Closed-form checks on the CLI's results, where one exists."""
        argv = op.params["argv"]
        scenario = argv[1]
        if scenario == "bell":
            x = float(argv[3].split(":")[1]) if "--state" in argv else 1.0
            yield "chsh_closed_form", abs(results["chsh_value"] + TSIRELSON * x) <= 1e-9
        elif scenario == "mermin":
            yield "no_assignment", results["satisfying_assignments"] == 0
        elif scenario == "fk":
            hbar = float(argv[argv.index("--hbar") + 1]) if "--hbar" in argv else 1.0
            ref = harmonic_partition(BETA, hbar, 1.0)
            yield ("spectral_matches_oracle",
                   abs(results["spectral_reference"] - ref) <= SPECTRAL_RTOL * ref)
            yield ("mc_within_5_stderr",
                   abs(results["mc_estimate"] - ref) <= MC_SIGMAS * results["mc_stderr"])
        elif scenario == "wigner":
            yield "normalized", abs(results["normalization"] - 1.0) <= 1e-6
            yield "magnitude_bound", results["max_abs"] <= 2 + 1e-6
