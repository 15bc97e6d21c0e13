"""Tests for the scenario runner command."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qdesk import cli
from qdesk.feynman_kac import PartitionReport
from qdesk.moments import MomentReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_python(probe: str, **env) -> str:
    """stdout of ``python -c probe`` in a fresh process that imports qdesk
    from this tree, with ``env`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True).stdout


def strip_time(payload: dict) -> dict:
    d = dict(payload)
    d.pop("wall_time_ms")
    return d


FAST_ARGS = {
    "inin": (),
    "entropic": (),
    "wigner": ("--grid-n", "256", "--grid-length", "24"),
    "fk": ("--paths", "2000"),
    "hv": ("--paths", "20000"),
    "bell": (),
    "mermin": (),
    "gleason": (),
}


def config(argv) -> cli.RunConfig:
    """The RunConfig that ``qdesk`` builds from ``argv``."""
    args = cli.build_parser().parse_args(argv)
    return cli.RunConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(cli.RunConfig)})


KiB, MiB = 2 ** 10, 2 ** 20
FIELD_512, FIELD_1024 = 8 * 512 ** 2, 8 * 1024 ** 2  # bytes of a float64 n x n field

# The argvs of perfbench's cli_mix workload, each with the traced peak of
# its cli.run in bytes.  A scenario holds at most one field-sized array
# besides its output; the wigner rows add one block of lags and its symbol
# rows (1.2 fields at n = 1024), entropic only length-n arrays of its two
# marginals, hv the 8-byte values of its samples and one block of
# directions.  fk holds the path values and each MC thread's block arrays.
MEMORY_BUDGETS = {
    "inin": (["--scenario", "inin", "--seed", "7"], 64 * KiB),
    "bell": (["--scenario", "bell"], 64 * KiB),
    "bell-werner": (["--scenario", "bell", "--state", "werner:0.9"], 64 * KiB),
    "mermin": (["--scenario", "mermin"], 64 * KiB),
    "gleason": (["--scenario", "gleason", "--seed", "7"], 64 * KiB),
    "hv": (["--scenario", "hv"], 16 * 100_000),
    "entropic": (["--scenario", "entropic"], 128 * KiB),
    "fk": (["--scenario", "fk", "--paths", "20000"], 2 * MiB),
    "fk-hbar0.5": (["--scenario", "fk", "--paths", "20000", "--hbar", "0.5"], 2 * MiB),
    "wigner-1024": (["--scenario", "wigner", "--grid-n", "1024"], 1.2 * FIELD_1024),
    "wigner-512": (["--scenario", "wigner", "--grid-n", "512"], FIELD_512 + 0.2 * FIELD_1024),
}


class TestScenarios:
    @pytest.mark.parametrize("scenario", sorted(FAST_ARGS))
    def test_scenario_passes(self, capsys, scenario):
        code, out = run_cli(capsys, "--scenario", scenario, *FAST_ARGS[scenario])
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == scenario
        assert all(payload["checks"].values())
        assert payload["wall_time_ms"] >= 0

    def test_bell_fig1_value(self, capsys):
        code, out = run_cli(capsys, "--scenario", "bell")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["results"]["chsh_value"] + 2 * 2 ** 0.5) < 1e-12

    def test_bell_value_comes_from_chsh_value(self, capsys, monkeypatch):
        # one library call computes tr(WK), as perfbench's span counts it
        original = cli.bl.chsh_value
        calls = []

        def spy(w, cfg):
            calls.append(original(w, cfg))
            return calls[-1]

        monkeypatch.setattr(cli.bl, "chsh_value", spy)
        code, out = run_cli(capsys, "--scenario", "bell")
        assert code == 0
        assert calls == [json.loads(out)["results"]["chsh_value"]]

    @pytest.mark.parametrize("name", sorted(MEMORY_BUDGETS))
    def test_peak_allocation_within_budget(self, name):
        argv, budget = MEMORY_BUDGETS[name]
        cfg = config(argv)
        cli.run(cfg)  # not counted: the lazy imports (fk's thread pool)
        tracemalloc.start()
        try:
            cli.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_wigner_husimi_min_is_the_smoothed_fields_minimum(self, hbar):
        record, field = cli.run(cli.RunConfig(scenario="wigner", grid_n=512,
                                              hbar=hbar))
        husimi = cli.ps.gauss_smooth(field, hbar / 2, hbar / 2)
        assert record.results["husimi_min"] == float(husimi.values.min())
        assert record.results["max_abs"] == float(np.max(np.abs(field.values)))

    def test_mermin_search_empty(self, capsys):
        code, out = run_cli(capsys, "--scenario", "mermin")
        payload = json.loads(out)
        assert payload["results"]["satisfying_assignments"] == 0
        assert payload["results"]["control_assignments"] > 0

    def test_fk_hbar_half(self, capsys):
        code, out = run_cli(capsys, "--scenario", "fk", "--paths", "2000",
                            "--hbar", "0.5")
        assert code == 0
        exact = 1.0 / (2 * math.sinh(0.5))  # beta = 2, hbar = 1/2, omega = 1
        assert abs(json.loads(out)["results"]["spectral_reference"] - exact) < 1e-10

    @pytest.mark.parametrize("option,value", [
        ("--beta", "0.05"), ("--hbar", "0.05"), ("--beta", "200"),
        ("--mass", "0.0001"), ("--hbar", "20")])
    def test_fk_reference_away_from_natural_units(self, capsys, option, value):
        # hot, nearly classical, cold, light and deep quantum; the exit code
        # is not asserted: when cold or light the Monte Carlo check fails on
        # its own (its free bridges miss the well)
        cli.main(["--scenario", "fk", "--paths", "2000", option, value])
        payload = json.loads(capsys.readouterr().out)
        cfg = payload["config"]
        exact = 1.0 / (2 * math.sinh(cfg["beta"] * cfg["hbar"]
                                     / (2 * math.sqrt(cfg["mass"]))))
        assert payload["checks"]["sandwich_holds"]
        assert abs(payload["results"]["spectral_reference"] - exact) <= 1e-10 * exact
        assert payload["results"]["spectral_grid"]["n"] <= 4096

    @pytest.mark.parametrize("potential, hbar", [
        ("20,0,0,0,0.25", "0.1"), ("300,0,0.5", "1"), ("300,0,0,0,0.25", "1")])
    def test_fk_passes_on_an_offset_well(self, capsys, potential, hbar):
        # the Monte Carlo box is measured from v(0), and the stderr of
        # values near 1e-261 does not underflow to 0
        code, out = run_cli(capsys, "--scenario", "fk", "--potential", potential,
                            "--hbar", hbar)
        assert code == 0
        assert json.loads(out)["results"]["mc_stderr"] > 0

    def test_fk_bounds(self, capsys):
        code, out = run_cli(capsys, "--scenario", "fk", "--paths", "2000")
        payload = json.loads(out)
        res = payload["results"]
        assert res["z_lower"] <= res["spectral_reference"] <= res["z_upper"]


class TestDeterminism:
    def test_json_identical_modulo_wall_time(self, capsys):
        _, out_a = run_cli(capsys, "--scenario", "inin", "--seed", "42")
        _, out_b = run_cli(capsys, "--scenario", "inin", "--seed", "42")
        assert strip_time(json.loads(out_a)) == strip_time(json.loads(out_b))

    def test_seed_changes_results(self, capsys):
        _, out_a = run_cli(capsys, "--scenario", "inin", "--seed", "1")
        _, out_b = run_cli(capsys, "--scenario", "inin", "--seed", "2")
        assert json.loads(out_a)["results"] != json.loads(out_b)["results"]

    def test_fk_does_not_depend_on_blas_threads(self):
        # the spectral reference's eigensolves run on one OpenBLAS thread
        probe = ("import contextlib, io, qdesk\n"
                 "from qdesk import cli\n"
                 "z = [qdesk.spectral_partition(qdesk.Potential.polynomial(c), 2.0, hbar=h)\n"
                 "     for c, h in [((0, 0, 0.5), 0.5), ((0, 0, 0, 0, 0.25), 2.0)]]\n"
                 "out = io.StringIO()\n"
                 "with contextlib.redirect_stdout(out):\n"
                 "    cli.main(['--scenario', 'fk', '--paths', '2000', '--hbar', '0.5'])\n"
                 "print(repr(z))\n"
                 "print(out.getvalue())")
        runs = [run_python(probe, OPENBLAS_NUM_THREADS=t).split("\n", 1)
                for t in ("1", "2")]
        assert runs[0][0] == runs[1][0]
        assert strip_time(json.loads(runs[0][1])) == strip_time(json.loads(runs[1][1]))


class TestConfigEcho:
    def test_defaults_are_run_config_defaults(self, capsys):
        _, out = run_cli(capsys, "--scenario", "mermin")
        expected = json.loads(json.dumps(dataclasses.asdict(cli.RunConfig("mermin"))))
        assert json.loads(out)["config"] == expected

    def test_every_field_from_the_command_line(self, capsys):
        s = 0.5 ** 0.5
        vectors = (0, 1, 0, 1, 0, 0, s, s, 0, -s, s, 0)
        code, out = run_cli(
            capsys, "--scenario", "bell", "--seed", "7", "--beta", "1.5",
            "--hbar", "0.5", "--mass", "2", "--grid-n", "128",
            "--grid-length", "24", "--paths", "2000", "--slices", "32",
            "--potential", "0,0,1", "--vectors", ",".join(map(repr, vectors)),
            "--state", "werner:0.5")
        assert code == 1  # a Werner state with x = 0.5 < 1/sqrt(2) obeys CHSH
        assert json.loads(out)["config"] == {
            "scenario": "bell", "seed": 7, "beta": 1.5, "hbar": 0.5,
            "mass": 2.0, "grid_n": 128, "grid_length": 24.0, "paths": 2000,
            "slices": 32, "potential": [0.0, 0.0, 1.0],
            "vectors": [float(x) for x in vectors], "state": "werner:0.5",
        }


class TestOutputs:
    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run_cli(capsys, "--scenario", "bell", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "bell"

    def test_refuses_overwrite_without_force(self, capsys, tmp_path, monkeypatch):
        # refused before the scenario runs, not after
        ran = []
        monkeypatch.setitem(cli.SCENARIOS, "bell", lambda cfg: ran.append(cfg))
        path = tmp_path / "report.json"
        path.write_text("{}")
        assert cli.main(["--scenario", "bell", "--out", str(path)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert path.read_text() == "{}"
        assert ran == []

    def test_force_overwrites(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{}")
        code, _ = run_cli(capsys, "--scenario", "bell", "--out", str(path),
                          "--force")
        assert code == 0
        assert json.loads(path.read_text())["scenario"] == "bell"

    @pytest.mark.parametrize("scenario,report", [
        ("inin", MomentReport), ("fk", PartitionReport)], ids=["inin", "fk"])
    def test_json_keys_are_the_report_fields(self, capsys, scenario, report):
        # the record and a report dataclass both reach JSON through asdict
        code, out = run_cli(capsys, "--scenario", scenario, *FAST_ARGS[scenario])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [f.name for f in dataclasses.fields(cli.ReportRecord)]
        assert list(payload["results"]) == [f.name for f in dataclasses.fields(report)]

    def test_csv_report_two_lines(self, capsys):
        code, out = run_cli(capsys, "--scenario", "mermin", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[0].split(",")) == len(lines[1].split(","))

    def test_csv_field_without_out_refused_before_running(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(cli.SCENARIOS, "wigner", lambda cfg: ran.append(cfg))
        assert cli.main(["--scenario", "wigner", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "invalid config: csv field output requires --out" in captured.err
        assert captured.out == ""
        assert ran == []

    def test_wigner_csv_field(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _ = run_cli(capsys, "--scenario", "wigner", "--grid-n", "128",
                          "--grid-length", "24", "--format", "csv",
                          "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 128 ** 2 + 1


    def test_wigner_csv_bytes_of_whole_lag_blocks(self, capsys, tmp_path):
        # the field as built before the partner lags were split off: each
        # block's lags 0..n-1 at once, the partners conjugated in a copy
        path = tmp_path / "field.csv"
        argv = ["--scenario", "wigner", "--grid-n", "512", "--format", "csv"]
        assert cli.main([*argv, "--out", str(path)]) == 0
        psi = cli._packet(config(argv))
        spec, n = psi.spec, psi.spec.n
        u = np.zeros(4 * n, dtype=complex)
        u[n:3 * n:2] = psi.samples
        u[n + 1:3 * n:2] = cli.ps._half_step(psi.samples, 0)
        windows = sliding_window_view(u, n)
        conj_windows = sliding_window_view(u.conj(), n)
        w = np.empty((n, n))
        step = cli.ps._LAG_BLOCK_CELLS // n
        for k0 in range(0, n, step):
            k1 = k0 + step
            c = (windows[2 * k0 + 1:2 * k1 + 1:2, ::-1]
                 * conj_windows[n + 2 * k0:n + 2 * k1:2])
            g = c[:, :n // 2 + 1]
            g[:, 1:] += c[:, n - 1:n // 2 - 1:-1].conj()
            x = np.fft.irfft(g, n, axis=1) * (n * spec.dq)
            w[:n // 2, k0:k1] = x[:, n // 2:].T
            w[n // 2:, k0:k1] = x[:, :n // 2].T
        reference = tmp_path / "reference.csv"
        cli.ps.PhaseSpaceField(spec, w).to_csv(reference)
        assert path.read_bytes() == reference.read_bytes()


class TestExitCodes:
    def test_bad_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--scenario", "nonsense"])
        assert exc.value.code == 2

    def test_bad_grid_n_exits_2(self, capsys):
        code, _ = run_cli(capsys, "--scenario", "wigner", "--grid-n", "100")
        assert code == 2

    def test_negative_beta_exits_2(self, capsys):
        code, _ = run_cli(capsys, "--scenario", "fk", "--beta", "-1")
        assert code == 2

    def test_bad_vectors_exits_2(self, capsys):
        code, _ = run_cli(capsys, "--scenario", "bell", "--vectors", "1,0,0")
        assert code == 2

    def test_bad_state_exits_2(self, capsys):
        code, _ = run_cli(capsys, "--scenario", "bell", "--state", "ghz")
        assert code == 2

    def test_mixed_state_obeys_chsh_and_exits_1(self, capsys):
        code, out = run_cli(capsys, "--scenario", "bell", "--state", "mixed")
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["chsh_value"] == 0.0
        assert payload["checks"]["chsh_violated"] is False
        assert payload["checks"]["tsirelson_pass"] is True

    @pytest.mark.parametrize("argv,message", [
        (("--seed", "-1"), "seed must fit in 64 unsigned bits"),
        (("--paths", "1"), "paths must be at least 2")], ids=["seed", "paths"])
    def test_out_of_range_count_exits_2(self, capsys, argv, message):
        assert cli.main(["--scenario", "hv", *argv]) == 2
        assert f"invalid config: {message}" in capsys.readouterr().err

    def test_zero_slices_exits_2(self, capsys):
        assert cli.main(["--scenario", "fk", "--slices", "0"]) == 2
        assert "slices must be at least 1" in capsys.readouterr().err

    def test_trace_past_the_largest_float_exits_0(self, capsys):
        # min beta v = -715: e^{715} overflows, its log does not.  The
        # values past the float range are null
        code, out = run_cli(capsys, "--scenario", "fk", "--potential=-357.5,0,0.5")
        assert code == 0
        res = json.loads(out)["results"]
        assert abs(res["log_spectral_reference"]
                   - (715 - math.log(2 * math.sinh(1.0)))) <= 1e-12
        assert res["spectral_reference"] is None and res["z_upper"] is None

    def test_path_values_without_a_finite_mean_exit_2(self, capsys):
        # 1e300 q^2: a path's a1^2/4a2 overflows, and the estimate's log is
        # not finite.  The overflow is reported by the exit, not by numpy
        # warnings on stderr, here raised as errors in every thread
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--scenario", "fk", "--paths", "2000",
                             "--potential", "0,0,1e300"]) == 2
        assert "no finite estimate" in capsys.readouterr().err

    def test_subnormal_trace_keeps_a_relative_stderr(self, capsys):
        # 370 + q^2/2: every path value would be a subnormal near 1.8e-322,
        # 36 spacings of precision; their logs keep the stderr
        code, out = run_cli(capsys, "--scenario", "fk", "--paths", "2000",
                            "--potential", "370,0,0.5")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["mc_rel_stderr"] > 0 and res["mc_estimate"] is None

    @pytest.mark.parametrize("argv", [
        ("--potential=-357.5,0,0.5",), ("--potential", "370,0,0.5"),
        ("--beta", "200")], ids=["c-357.5", "c370", "beta200"])
    def test_json_is_strict_past_the_float_range(self, capsys, argv):
        # a z field outside the normal floats is null, never Infinity or a
        # subnormal, and every log field is finite
        cli.main(["--scenario", "fk", "--paths", "2000", *argv])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        res = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
        for name in ("z_upper", "z_lower", "spectral_reference", "mc_estimate",
                     "mc_stderr"):
            assert res[name] is None or res[name] >= sys.float_info.min
        logs = [res[name] for name in ("log_z_upper", "log_z_lower",
                                       "log_spectral_reference", "log_mc_estimate",
                                       "mc_rel_stderr")]
        assert all(map(math.isfinite, logs))
        assert res["mc_estimate"] is None or res["mc_estimate"] == math.exp(
            res["log_mc_estimate"])

    @pytest.mark.parametrize("argv", [
        ("--potential=-350,0,0.5",),
        ("--paths", "2000", "--potential=-354.8,0,0.5")], ids=["z4e303", "z6e307"])
    def test_trace_near_the_largest_float_exits_0(self, capsys, argv):
        # c = -350: Z = e^{700}/(2 sinh 1) ~ 4.3e303, and the default 100k
        # path values of ~e^{700} are averaged without their sum passing the
        # largest float.  c = -354.8: Z = e^{709.6}/(2 sinh 1) ~ 6.4e307, and
        # the Gaussian closed form of a path value divides sqrt(pi/a_2) =
        # 1.77 by lambda = 3.54 before it multiplies in e^{709.6}
        code, out = run_cli(capsys, "--scenario", "fk", *argv)
        assert code == 0
        assert math.isfinite(json.loads(out)["results"]["mc_estimate"])

    def test_subnormal_trace_keeps_its_sandwich(self, capsys):
        # beta E_0 = 719: each reference is summed from its own peak, so the
        # lower bound stays under the reference and tau* is found; the
        # subnormal values themselves are null
        code, out = run_cli(capsys, "--scenario", "fk", "--paths", "2000",
                            "--potential", "359,0,0.5")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["log_z_lower"] <= res["log_spectral_reference"] < res["log_z_upper"]
        assert res["z_lower"] is None and res["spectral_reference"] is None
        assert res["tau_star"] is not None

    def test_one_slice_is_the_classical_bound(self, capsys):
        # the library's bound: one slice gives every path the classical
        # z(beta, 0), so the stderr is 0 and the 3-stderr check fails
        code, out = run_cli(capsys, "--scenario", "fk", "--slices", "1",
                            "--paths", "2000")
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"]["mc_within_3_stderr"] is False
        results = payload["results"]
        assert abs(results["mc_estimate"] - results["z_upper"]) <= 1e-7

    @pytest.mark.parametrize("argv", [
        ("--scenario", "entropic", "--hbar", "nan"),
        ("--scenario", "inin", "--hbar", "inf"),
        ("--scenario", "wigner", "--grid-n", "64", "--grid-length", "inf"),
        ("--scenario", "fk", "--beta", "nan"),
        ("--scenario", "fk", "--mass", "inf"),
        ("--scenario", "fk", "--potential", "0,0,nan"),
    ])
    def test_non_finite_input_exits_2(self, capsys, argv):
        code = cli.main(list(argv))
        assert code == 2
        name = argv[-2].lstrip("-").replace("-", "_")
        assert f"invalid config: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["entropic", "wigner"])
    @pytest.mark.parametrize("hbar,expected", [("0.01", 2), ("0.12", 2), ("0.13", 0)])
    def test_momentum_edge_boundary(self, capsys, scenario, hbar, expected):
        # both scenarios build the chirped packet.  At hbar = 0.01 the default
        # grid cuts momentum at pi hbar/dq = 0.5 and the packet reaches
        # |p| ~ 3; its edge amplitude crosses the 1e-12 of the position check
        # between hbar = 0.12 and 0.13 (about 3e-11 and 4e-13 of its peak)
        code = cli.main(["--scenario", scenario, "--hbar", hbar])
        captured = capsys.readouterr()
        assert code == expected
        if expected == 2:
            assert captured.out == ""
            assert "not resolved in momentum" in captured.err

    def test_check_failure_exits_1(self, capsys, monkeypatch):
        def failing(cfg):
            return {"value": 0.0}, {"always_fails": False}, None

        monkeypatch.setitem(cli.SCENARIOS, "mermin", failing)
        code, out = run_cli(capsys, "--scenario", "mermin")
        assert code == 1

    @pytest.mark.parametrize("argv, factor", [
        (FAST_ARGS["fk"], 1.5),
        (("--paths", "2000", "--potential", "300,0,0.5"), 10.0)],
        ids=["harmonic", "z1e-261"])
    def test_sandwich_violation_exits_1(self, capsys, monkeypatch, argv, factor):
        # judged relative to the values: a reference 10 times too large
        # fails at Z ~ 1e-261 as well
        original = cli.fk.spectral_partition

        def scaled(*args, **kw):
            log_z, grid = original(*args, **kw)
            return log_z + math.log(factor), grid

        monkeypatch.setattr(cli.fk, "spectral_partition", scaled)
        code, out = run_cli(capsys, "--scenario", "fk", *argv)
        assert code == 1
        assert json.loads(out)["checks"]["sandwich_holds"] is False

    def test_bounds_out_of_order_exit_1(self, capsys, monkeypatch):
        # a z(beta, beta) above z(beta, 0) is a failed check, not a raise
        original = cli.fk.classical_partition
        monkeypatch.setattr(cli.fk, "classical_partition",
                            lambda v, beta, tau, *args: math.log(3) * (tau > 0)
                            + original(v, beta, tau, *args))
        code, out = run_cli(capsys, "--scenario", "fk", *FAST_ARGS["fk"])
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["log_z_lower"] > payload["results"]["log_z_upper"]
        assert payload["checks"]["bounds_ordered"] is False

    def test_negative_variance_exits_1(self, capsys, monkeypatch):
        original = cli.moments
        monkeypatch.setattr(cli, "moments", lambda *args, **kw: dataclasses.replace(
            original(*args, **kw), var_a=-0.1))
        code, out = run_cli(capsys, "--scenario", "inin")
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["var_a"] == -0.1
        assert payload["checks"]["variances_nonnegative"] is False

    def test_magic_square_premise_failure_exits_1(self, capsys, monkeypatch):
        # with 1.1 SY the entries holding SY no longer square to I
        monkeypatch.setattr(cli.bl, "SY", 1.1 * cli.bl.SY)
        code, out = run_cli(capsys, "--scenario", "mermin")
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["square_residual"] > 1e-12
        assert payload["checks"]["square_residual"] is False

    def test_indeterminacy_violation_exits_1(self, capsys, monkeypatch):
        module = sys.modules["qdesk.moments"]
        original = module.standardized_commutator
        monkeypatch.setattr(module, "standardized_commutator",
                            lambda a, b, hbar: 100 * original(a, b, hbar))
        code, out = run_cli(capsys, "--scenario", "inin")
        assert code == 1
        assert json.loads(out)["checks"]["inin_holds"] is False

    def test_tsirelson_violation_exits_1(self, capsys, monkeypatch):
        original = cli.bl.chsh_operator

        def doubled(cfg):
            k, info = original(cfg)
            return cli.op.HermitianOperator(2 * k.matrix), info

        monkeypatch.setattr(cli.bl, "chsh_operator", doubled)
        code, out = run_cli(capsys, "--scenario", "bell")
        assert code == 1
        assert json.loads(out)["checks"]["tsirelson_pass"] is False

    def test_runtime_error_exits_3(self, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.SCENARIOS, "mermin", broken)
        code, _ = run_cli(capsys, "--scenario", "mermin")
        assert code == 3


class TestStartup:
    def test_import_leaves_scipy_special_unloaded(self):
        # nor does the spectral reference load scipy.linalg
        probe = ("import sys, qdesk\n"
                 "loaded = lambda: [m in sys.modules for m in ('scipy.special', 'scipy.linalg')]\n"
                 "print(loaded())\n"
                 "qdesk.spectral_partition(qdesk.Potential.polynomial((0, 0, 0.5)), 2.0)\n"
                 "print(loaded())")
        assert run_python(probe).split("\n")[:2] == ["[False, False]"] * 2

    def test_feynman_kac_leaves_scipy_unloaded(self):
        # the path sampler draws its normals with numpy alone
        probe = ("import contextlib, io, sys, qdesk\n"
                 "from qdesk import cli\n"
                 "v = qdesk.Potential.polynomial((0, 0, 0.5))\n"
                 "qdesk.bound_check(v, 2.0, n_paths=2000)\n"
                 "qdesk.sample_bridge(2.0, 64, path_index=700)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(['--scenario', 'fk', '--paths', '2000'])\n"
                 "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert run_python(probe).strip() == "0 []"

    def test_cli_leaves_numpy_polynomial_unloaded(self):
        # Potential evaluates by np.polyval: numpy.polynomial would add nine
        # modules to every start-up
        probe = ("import contextlib, io, sys\n"
                 "from qdesk import cli\n"
                 "print('numpy.polynomial' in sys.modules)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main(['--scenario', 'fk', '--paths', '2000'])\n"
                 "print(code, 'numpy.polynomial' in sys.modules)")
        assert run_python(probe).split("\n")[:2] == ["False", "0 False"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_spectral_reference_leaves_no_blas_worker_spinning(self):
        # a threaded OpenBLAS call leaves its worker busy-waiting ~0.13 s.
        # So do the workers that start with ``import numpy``: the first
        # sleep lets them settle, and the window sees only the call's
        probe = ("import time, qdesk\n"
                 "time.sleep(0.3)\n"
                 "qdesk.spectral_partition(qdesk.Potential.polynomial((0, 0, 0.5)), 2.0)\n"
                 "start = time.process_time()\n"
                 "time.sleep(0.3)\n"
                 "print(time.process_time() - start)")
        assert float(run_python(probe)) < 0.05

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_monte_carlo_leaves_no_blas_worker_spinning(self):
        probe = ("import time, qdesk\n"
                 "v = qdesk.Potential.polynomial((0, 0, 0, 0, 0.25))\n"
                 "time.sleep(0.3)\n"
                 "qdesk.fk_mc_partition(v, 2.0)\n"
                 "start = time.process_time()\n"
                 "time.sleep(0.3)\n"
                 "print(time.process_time() - start)")
        assert float(run_python(probe)) < 0.05
