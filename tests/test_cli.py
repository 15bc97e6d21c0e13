"""Tests for the scenario runner command."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_refuses_overwrite_without_force(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{}")
        code, _ = run_cli(capsys, "--scenario", "bell", "--out", str(path))
        assert code == 2
        assert path.read_text() == "{}"

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

    def test_wigner_csv_field(self, capsys, tmp_path):
        path = tmp_path / "field.csv"
        code, _ = run_cli(capsys, "--scenario", "wigner", "--grid-n", "128",
                          "--grid-length", "24", "--format", "csv",
                          "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 128 ** 2 + 1


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

    def test_sandwich_violation_exits_1(self, capsys, monkeypatch):
        original = cli.fk.spectral_partition
        monkeypatch.setattr(cli.fk, "spectral_partition",
                            lambda *args, **kw: 1.5 * original(*args, **kw))
        code, out = run_cli(capsys, "--scenario", "fk", *FAST_ARGS["fk"])
        assert code == 1
        assert json.loads(out)["checks"]["sandwich_holds"] is False

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

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_spectral_reference_leaves_no_blas_worker_spinning(self):
        # a threaded OpenBLAS call leaves its worker busy-waiting ~0.13 s
        probe = ("import time, qdesk\n"
                 "qdesk.spectral_partition(qdesk.Potential.polynomial((0, 0, 0.5)), 2.0)\n"
                 "start = time.process_time()\n"
                 "time.sleep(0.3)\n"
                 "print(time.process_time() - start)")
        assert float(run_python(probe)) < 0.05

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_monte_carlo_leaves_no_blas_worker_spinning(self):
        probe = ("import time, qdesk\n"
                 "v = qdesk.Potential.polynomial((0, 0, 0, 0, 0.25))\n"
                 "qdesk.fk_mc_partition(v, 2.0)\n"
                 "start = time.process_time()\n"
                 "time.sleep(0.3)\n"
                 "print(time.process_time() - start)")
        assert float(run_python(probe)) < 0.05
