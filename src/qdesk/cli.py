"""Scenario runner: one command exposing each module's headline
computation with deterministic seeds and JSON/CSV reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 invalid configuration,
3 runtime error.  Natural units (hbar = m = 1) are the defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import bell as bl
from . import feynman_kac as fk
from . import operators as op
from . import phasespace as ps
from . import spin as sp
# by name: the package attribute ``qdesk.moments`` is the re-exported function
from .moments import moments


def _chsh_config(cfg: RunConfig) -> bl.CHSHConfig:
    if cfg.vectors is None:
        return bl.fig1_config()
    v = np.asarray(cfg.vectors, dtype=float).reshape(4, 3)
    return bl.CHSHConfig(*v)


def _bell_state(cfg: RunConfig) -> op.DensityOperator:
    name = cfg.state
    if name == "singlet":
        return bl.singlet()
    if name == "mixed":
        return op.DensityOperator(np.eye(4) / 4)
    if name.startswith("werner:"):
        return bl.werner_state(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown state {name!r} (singlet, mixed, werner:<x>)")


def _packet(cfg: RunConfig) -> ps.GridWavefunction:
    spec = ps.GridSpec(cfg.grid_n, cfg.grid_length, cfg.hbar)
    return ps.gaussian_packet(spec, alpha2=1.0, gamma=0.3)


def _random_hermitian(dim: int, rng: np.random.Generator) -> op.HermitianOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return op.HermitianOperator((g + g.conj().T) / 2)


def _run_inin(cfg: RunConfig):
    rng = np.random.default_rng(np.random.Philox(key=cfg.seed))
    dim = 4
    w = bl.random_density(dim, rng)
    a, b = (_random_hermitian(dim, rng) for _ in range(2))
    rep = moments(w, a, b, hbar=cfg.hbar)
    return dataclasses.asdict(rep), {
        "variances_nonnegative": min(rep.var_a, rep.var_b) >= -1e-12,
        "inin_holds": rep.inin_lhs >= rep.inin_rhs - 1e-9}, None


def _run_entropic(cfg: RunConfig):
    psi = _packet(cfg)
    res = ps.variance_from_entropic(psi)
    checks = {
        "entropy_above_ln_e_over_2": res["entropy"] >= res["bound"] - 1e-6,
        "entropy_below_cross_entropy": res["entropy"] <= res["cross_entropy"] + 1e-6,
        "cross_matches_gaussian_form":
            abs(res["cross_entropy"] - res["gaussian_form"]) <= 1e-6,
        "sigma_product_above_hbar_half":
            res["sigma_product"] >= cfg.hbar / 2 - 1e-9,
    }
    return res, checks, None


def _run_wigner(cfg: RunConfig):
    psi = _packet(cfg)
    spec = psi.spec
    field = ps.wigner_transform(psi)
    q_marg = field.values.sum(axis=0) * spec.dp / (2 * math.pi * spec.hbar)
    p_marg = field.values.sum(axis=1) * spec.dq / (2 * math.pi * spec.hbar)
    q_err = float(np.max(np.abs(q_marg - psi.density())))
    p_err = float(np.max(np.abs(p_marg - np.abs(ps.to_momentum(psi)) ** 2)))
    # the Husimi density's minimum, a block of rows at a time: no second
    # field, and each block is freed before the next is built
    husimi = ps._smoothed_rows(field.values, spec, cfg.hbar / 2, cfg.hbar / 2)
    results = {
        "normalization": field.normalization(),
        "max_abs": float(max(field.values.max(), -field.values.min())),
        "position_marginal_error": q_err,
        "momentum_marginal_error": p_err,
        "husimi_min": float(min(map(np.min, husimi))),
    }
    checks = {
        "normalized": abs(results["normalization"] - 1.0) <= 1e-6,
        "marginals_match": max(q_err, p_err) <= 1e-6,
        "magnitude_bound": results["max_abs"] <= 2 + 1e-6,
        "husimi_nonnegative": results["husimi_min"] >= -1e-8,
    }
    return results, checks, field


def _run_fk(cfg: RunConfig):
    v = fk.Potential.polynomial(cfg.potential)
    report = fk.bound_check(v, cfg.beta, cfg.mass, cfg.hbar,
                            m_slices=cfg.slices, n_paths=cfg.paths,
                            seed=cfg.seed)
    results = dataclasses.asdict(report)
    lower, upper = report.log_z_lower, report.log_z_upper
    ref = report.log_spectral_reference
    checks = {
        "bounds_ordered": lower <= upper + 1e-12,
        "sandwich_holds": lower - 1e-8 <= ref <= upper + 1e-8,
        "mc_within_3_stderr":  # |est - ref| <= 3 stderr, stderr = rel est
            abs(math.expm1(ref - report.log_mc_estimate)) <= 3 * report.mc_rel_stderr,
    }
    return results, checks, None


def _run_hv(cfg: RunConfig):
    rng = np.random.default_rng(np.random.Philox(key=cfg.seed))
    a_vec = rng.standard_normal(3)
    obs = sp.SpinObservable(float(rng.standard_normal()), a_vec)
    p = rng.standard_normal(3)
    p *= rng.random() / np.linalg.norm(p)
    state = sp.BlochState(p)
    res = sp.hv_expectation(obs, state, n_samples=cfg.paths, seed=cfg.seed)
    checks = {
        "matches_analytic":
            abs(res["estimate"] - res["analytic"]) <= 3 * max(res["stderr"], 1e-12),
    }
    return res, checks, None


def _run_bell(cfg: RunConfig):
    chsh_cfg = _chsh_config(cfg)
    state = _bell_state(cfg)
    _, identity = bl.chsh_operator(chsh_cfg)
    value = bl.chsh_value(state, chsh_cfg)
    results = {
        "chsh_value": value,
        "classical_bound": 2.0,
        "tsirelson_bound": 2 * math.sqrt(2),
        "k_squared_identity_residual": identity["identity_residual"],
    }
    checks = {
        "tsirelson_pass": abs(value) <= 2 * math.sqrt(2) + 1e-10,
        "chsh_violated": abs(value) > 2.0,
        "k_squared_identity": identity["identity_residual"] <= 1e-12,
    }
    return results, checks, None


def _run_mermin(cfg: RunConfig):
    _, residuals = bl.mermin_square()
    search = bl.mermin_assignment_search()
    control = bl.mermin_assignment_search(column_targets=(1, 1, None))
    results = dict(residuals)
    results["satisfying_assignments"] = search["satisfying_assignments"]
    results["control_assignments"] = control["satisfying_assignments"]
    checks = {name: res <= 1e-12 for name, res in residuals.items()}
    checks["no_consistent_assignment"] = search["satisfying_assignments"] == 0
    checks["control_search_nonempty"] = control["satisfying_assignments"] > 0
    return results, checks, None


def _run_gleason(cfg: RunConfig):
    rng = np.random.default_rng(np.random.Philox(key=cfg.seed))
    worst = 0.0
    for dim in (2, 3, 4):
        w = bl.random_density(dim, rng)
        basis = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
        projections = [np.outer(basis[:, k], basis[:, k].conj())
                       for k in range(dim)]
        res = op.gleason_additivity_check(w, projections)
        worst = max(worst, res["residual"])
    sgn_measure = sp.SphereMeasureFn(lambda e: sp._sgn(e[2]))
    fit_residual = sp.linear_fit_residual(sgn_measure, seed=cfg.seed)
    results = {"additivity_residual": worst, "sgn_fit_residual": fit_residual}
    checks = {
        "additivity_holds": worst <= 1e-10,
        "sgn_measure_not_state_induced": fit_residual > 0.1,
    }
    return results, checks, None


# Each runner returns (results, checks, artifact); the artifact is the
# phase-space field that ``--format csv`` writes, or None.
SCENARIOS = {
    "inin": _run_inin,
    "entropic": _run_entropic,
    "wigner": _run_wigner,
    "fk": _run_fk,
    "hv": _run_hv,
    "bell": _run_bell,
    "mermin": _run_mermin,
    "gleason": _run_gleason,
}


def _reals(text: str) -> tuple:
    return tuple(float(c) for c in text.split(","))


@dataclasses.dataclass
class RunConfig:
    """One scenario run.  Each field is also the command-line option
    ``--<name>`` (underscores as dashes) with the same default; ``metadata``
    holds the extra argparse keywords."""

    scenario: str = dataclasses.field(metadata={"choices": SCENARIOS})
    seed: int = 0
    beta: float = 2.0
    hbar: float = 1.0
    mass: float = 1.0
    grid_n: int = 512
    grid_length: float = 32.0
    paths: int = 100_000
    slices: int = 64
    potential: tuple = dataclasses.field(default=(0.0, 0.0, 0.5), metadata={
        "type": _reals,
        "help": "comma-separated polynomial coefficients, ascending"})
    vectors: tuple | None = dataclasses.field(default=None, metadata={
        "type": _reals, "help": "12 comma-separated reals: a, b, c, d"})
    state: str = "singlet"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.seed < 0 or self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        op._require_positive(beta=self.beta, hbar=self.hbar, mass=self.mass,
                             grid_length=self.grid_length)
        if self.grid_n < 2 or self.grid_n & (self.grid_n - 1):
            raise ValueError("grid_n must be a power of two")
        if self.paths < 2:
            raise ValueError("paths must be at least 2")
        if self.slices < 1:
            raise ValueError("slices must be at least 1")
        if self.vectors is not None and len(self.vectors) != 12:
            raise ValueError("vectors must hold exactly 12 reals")
        if not all(map(math.isfinite, [*self.potential, *(self.vectors or ())])):
            raise ValueError("potential and vectors entries must be finite")


@dataclasses.dataclass
class ReportRecord:
    scenario: str
    config: dict
    results: dict
    checks: dict
    wall_time_ms: float


def run(cfg: RunConfig) -> tuple[ReportRecord, ps.PhaseSpaceField | None]:
    start = time.perf_counter()
    results, checks, field = SCENARIOS[cfg.scenario](cfg)
    elapsed = (time.perf_counter() - start) * 1000
    record = ReportRecord(cfg.scenario, dataclasses.asdict(cfg), results, checks,
                          elapsed)
    return record, field


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, out)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}.{i}", val, out)
    else:
        out[prefix] = obj


def emit(record: ReportRecord, fmt: str, path: str | None,
         field: ps.PhaseSpaceField | None = None) -> str:
    if fmt == "csv" and field is not None:
        field.to_csv(path)
        return f"wrote phase-space field to {path}"
    if fmt == "json":
        text = json.dumps(dataclasses.asdict(record), indent=2, default=float)
    else:
        flat: dict = {}
        _flatten("", dataclasses.asdict(record), flat)
        keys = list(flat)
        text = (",".join(keys) + "\n"
                + ",".join("" if flat[k] is None else repr(flat[k])
                           for k in keys) + "\n")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        return f"wrote report to {path}"
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesk", description="quantum-structure verification scenarios")
    for f in dataclasses.fields(RunConfig):
        kwargs = dict(f.metadata)
        if f.default is dataclasses.MISSING:
            kwargs["required"] = True
        else:
            kwargs.setdefault("type", type(f.default))
            kwargs["default"] = f.default
        parser.add_argument("--" + f.name.replace("_", "-"), **kwargs)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(RunConfig)})
    except (ValueError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.out and os.path.exists(args.out) and not args.force:
        print(f"refusing to overwrite {args.out} without --force", file=sys.stderr)
        return 2
    if args.format == "csv" and not args.out and cfg.scenario == "wigner":
        # the one scenario whose artifact is a phase-space field
        print("invalid config: csv field output requires --out", file=sys.stderr)
        return 2
    try:
        record, ps_field = run(cfg)
        output = emit(record, args.format, args.out, ps_field)
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - uniform runtime-error exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(output)
    return 0 if all(record.checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
