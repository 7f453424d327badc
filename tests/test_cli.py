import json
import math
import warnings

import numpy as np
import pytest

from rankflow import (EventLog, FlowGrid, assign_population, load_spec,
                      simulate_flow_driven)
from rankflow.cli import (EXIT_ASSERTION, EXIT_INVALID, EXIT_NO_CONVERGENCE,
                          EXIT_OK, main)

CONFIGS = "configs"


def run(argv):
    return main(argv)


def test_validate_ok(capsys):
    code = run(["validate", "--config", f"{CONFIGS}/constant_unit.json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "M_W = 1" in out
    assert "C_W = 0" in out


def test_validate_missing_file(capsys):
    assert run(["validate", "--config", "configs/nope.json"]) == EXIT_INVALID
    assert "No such file" in capsys.readouterr().err


def test_validate_negative_rate(tmp_path, capsys):
    cfg = {"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": {"kind": "constant", "value": -1.0}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = run(["validate", "--config", str(path)])
    assert code == EXIT_INVALID
    assert "classes[0].field" in capsys.readouterr().err


def test_validate_bad_weights(tmp_path, capsys):
    cfg = {"horizon": 1.0, "classes": [
        {"weight": 0.4, "field": {"kind": "constant", "value": 1.0}},
        {"weight": 0.5, "field": {"kind": "constant", "value": 1.0}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["validate", "--config", str(path)]) == EXIT_INVALID
    assert "weights sum" in capsys.readouterr().err
    # non-finite numbers and booleans fail fast in validate and solve alike
    with open(f"{CONFIGS}/affine_two_class.json") as fh:
        good = json.load(fh)
    nan_base = json.loads(json.dumps(good))
    nan_base["classes"][0]["field"]["base"] = float("nan")
    nan_weight = json.loads(json.dumps(good))
    nan_weight["classes"][1]["weight"] = float("nan")
    bool_horizon = dict(good, horizon=True)
    for bad, where in ((nan_base, "classes[0].field.base"),
                       (nan_weight, "classes[1].weight"),
                       (bool_horizon, "horizon")):
        path.write_text(json.dumps(bad))
        for cmd in ("validate", "solve"):
            argv = [cmd, "--config", str(path)]
            if cmd == "solve":
                argv += ["--out", str(tmp_path), "--nz", "5", "--nt", "20"]
            assert run(argv) == EXIT_INVALID
            assert where in capsys.readouterr().err


def test_solve_zero_rates_one_iteration(tmp_path, capsys):
    code = run(["solve", "--config", f"{CONFIGS}/zero_rate.json",
                "--out", str(tmp_path), "--nz", "10", "--nt", "50"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "converged in 1 iterations" in out
    assert (tmp_path / "y_c.csv").exists()
    assert (tmp_path / "y_c.npz").exists()


def test_solve_unit_rate_csv_value(tmp_path):
    code = run(["solve", "--config", f"{CONFIGS}/constant_unit.json",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    want = 1 - 0.5 * math.exp(-1.0)
    for line in (tmp_path / "y_c.csv").read_text().splitlines():
        kind, coord, t, theta = line.split(",") if "," in line else (None,) * 4
        if kind == "initial" and coord == "0.5" and t == "1.0":
            assert float(theta) == pytest.approx(want, abs=1e-3)
            break
    else:
        pytest.fail("grid node (0.5, 0) at t=1 missing from CSV")


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    code = run(["solve", "--config", f"{CONFIGS}/affine_two_class.json",
                "--out", str(tmp_path), "--nz", "5", "--nt", "40",
                "--tol", "1e-13", "--max-iter", "2"])
    assert code == EXIT_NO_CONVERGENCE
    assert "residual" in capsys.readouterr().err


def test_simulate_single_particle(tmp_path):
    code = run(["simulate", "--config", f"{CONFIGS}/constant_unit.json",
                "--out", str(tmp_path), "--n", "1", "--seed", "3"])
    assert code == EXIT_OK
    assert (tmp_path / "log_original_n1_seed3.npz").exists()
    summary = json.loads((tmp_path / "log_original_n1_seed3.json").read_text())
    assert summary["n"] == 1


def test_simulate_deterministic_bytes(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run(["simulate", "--config", f"{CONFIGS}/affine_two_class.json",
             "--out", str(out), "--n", "50", "--seed", "11"])
        blobs.append((out / "log_original_n50_seed11.npz").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_flow_driven_mode(tmp_path):
    code = run(["simulate", "--config", f"{CONFIGS}/constant_mixture.json",
                "--out", str(tmp_path), "--n", "20",
                "--flow", "identity", "--nz", "10", "--nt", "50"])
    assert code == EXIT_OK
    assert (tmp_path / "log_flow_n20_seed0.npz").exists()


def test_simulate_flow_picks_the_flow_driven_engine(tmp_path):
    # --flow without the former --mode flow once ran the original model and
    # wrote log_original_n20_seed1
    config = f"{CONFIGS}/affine_two_class.json"
    assert run(["simulate", "--config", config, "--out", str(tmp_path),
                "--n", "20", "--seed", "1", "--flow", "identity",
                "--nz", "10", "--nt", "50"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"log_flow_n20_seed1.{ext}" for ext in ("csv", "json", "npz")]
    summary = json.loads((tmp_path / "log_flow_n20_seed1.json").read_text())
    assert summary["mode"] == "flow"
    spec = load_spec(config)
    want = simulate_flow_driven(assign_population(spec, 20),
                                FlowGrid.identity(spec.horizon, 10, 50), seed=1)
    got = EventLog.load(tmp_path / "log_flow_n20_seed1.npz", spec)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.particles.tobytes() == want.particles.tobytes()


def test_simulate_has_no_mode_option(tmp_path, capsys):
    # --flow picks the engine, as it does for sweep
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", f"{CONFIGS}/constant_unit.json",
              "--out", str(tmp_path), "--n", "5", "--mode", "flow"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_simulate_refuses_nan_flow_cache(tmp_path, capsys):
    assert run(["solve", "--config", f"{CONFIGS}/constant_unit.json",
                "--out", str(tmp_path), "--nz", "5", "--nt", "20"]) == EXIT_OK
    with np.load(tmp_path / "y_c.npz") as cache:
        data = dict(cache)
    data["bdry_values"][3, 10] = np.nan
    np.savez(tmp_path / "nan.npz", **data)
    capsys.readouterr()
    code = run(["simulate", "--config", f"{CONFIGS}/constant_unit.json",
                "--out", str(tmp_path), "--n", "20",
                "--flow", str(tmp_path / "nan.npz")])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: boundary table: ")


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "20"],
    ["sweep", "--n-values", "10", "--seeds", "2"],
], ids=["simulate", "sweep"])
def test_flow_cache_refuses_nan_horizon(command, tmp_path, capsys):
    config = ["--config", f"{CONFIGS}/affine_two_class.json"]
    assert run(["solve"] + config + ["--out", str(tmp_path), "--nz", "5",
                                     "--nt", "20"]) == EXIT_OK
    with np.load(tmp_path / "y_c.npz") as cache:
        data = dict(cache, horizon=np.nan)
    np.savez(tmp_path / "nan.npz", **data)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command + config + ["--out", str(tmp_path / "out"),
                                       "--flow", str(tmp_path / "nan.npz")])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        "error: horizon: must be positive and finite, got nan")


def test_solve_has_no_damping_option(tmp_path, capsys):
    # the solver picks its own step: full, then 0.5 after a rising residual
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", f"{CONFIGS}/zero_rate.json",
              "--out", str(tmp_path), "--damping", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --damping" in capsys.readouterr().err


@pytest.mark.parametrize("not_a_cache, reason", [
    ("event_log", "no 'init_values' in it"),
    ("json_config", "pickled"),
    ("empty_file", "No data left"),
    ("npy_array", "one bare array"),
    ("broken_zip", "not a zip file"),
], ids=["event_log", "json_config", "empty_file", "npy_array", "broken_zip"])
def test_simulate_refuses_a_flow_file_that_is_not_a_solve_cache(
        not_a_cache, reason, tmp_path, capsys):
    common = ["--config", f"{CONFIGS}/constant_unit.json",
              "--out", str(tmp_path), "--n", "10"]
    path = tmp_path / "flow"
    if not_a_cache == "event_log":
        assert run(["simulate"] + common) == EXIT_OK
        path = tmp_path / "log_original_n10_seed0.npz"
    elif not_a_cache == "json_config":
        path = f"{CONFIGS}/constant_unit.json"
    elif not_a_cache == "empty_file":
        path.write_bytes(b"")
    elif not_a_cache == "npy_array":
        path = tmp_path / "flow.npy"
        np.save(path, np.zeros(3))
    else:
        path.write_bytes(b"PK\x03\x04 not a zip")
    capsys.readouterr()
    code = run(["simulate"] + common + ["--flow", str(path)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a solve cache: ")
    assert reason in err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_validate_refuses_an_unhashable_field_kind(kind, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": {"kind": kind}}]}))
    assert run(["validate", "--config", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        "error: classes[0].field.kind: unknown kind")


@pytest.mark.parametrize("field, bound", [
    ({"kind": "affine", "base": 1e308, "slope": 1e308}, "sup_norm"),
    ({"kind": "product", "y_base": 1e200, "y_slope": 0.0, "t_base": 1e200,
      "t_slope": 0.0}, "sup_norm"),
    ({"kind": "table", "values": [[0.0, 0.0], [1e308, 1e308], [0.0, 0.0]]},
     "y_deriv_bound"),
], ids=["affine", "product", "table"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_command_refuses_a_rate_bound_that_overflows(command, field, bound,
                                                     tmp_path, capsys):
    # finite parameters whose bound is inf cannot be simulated
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": field}]}))
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out"), "--n", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        f"error: classes[0].field.{bound}: the parameters give inf")
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_huge_finite_rate(tmp_path, capsys):
    # validate accepts the finite bound; the Poisson draw cannot take it
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"horizon": 1.0, "classes": [
        {"weight": 1.0, "field": {"kind": "constant", "value": 1e300}}]}))
    assert run(["validate", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["simulate", "--config", str(path), "--n", "10",
                "--out", str(tmp_path / "out")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "candidates, above the" in err


def test_sweep_smoke_negative_slope(tmp_path):
    code = run(["sweep", "--config", f"{CONFIGS}/constant_mixture.json",
                "--out", str(tmp_path), "--n-values", "50", "200", "800",
                "--seeds", "6", "--nz", "10", "--nt", "100"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "convergence.json").read_text())
    assert summary["passed"] is True
    m = summary["metrics"][0]
    assert m["slope"] < 0
    assert (tmp_path / "convergence.csv").exists()


def test_couple_position_independent(tmp_path):
    code = run(["couple", "--config", f"{CONFIGS}/constant_mixture.json",
                "--out", str(tmp_path), "--n-values", "30", "100",
                "--seeds", "3", "--nz", "10", "--nt", "50"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "coupling.json").read_text())
    assert summary["passed"] is True


@pytest.mark.parametrize("command", [["couple"], ["sweep"],
                                     ["sweep", "--flow", "solve"]],
                         ids=["couple", "sweep", "sweep-flow-solve"])
def test_bytes_independent_of_workers(command, tmp_path):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code = run(command + ["--config", f"{CONFIGS}/affine_two_class.json",
                              "--out", str(out), "--n-values", "30", "100",
                              "--seeds", "3", "--nz", "10", "--nt", "50",
                              "--workers", str(workers)])
        outputs.append((code, {p.name: p.read_bytes()
                               for p in sorted(out.iterdir())}))
    assert len(outputs[0][1]) == 2 and outputs[0] == outputs[1]


def test_tagged_command(tmp_path):
    code = run(["tagged", "--config", f"{CONFIGS}/constant_mixture.json",
                "--out", str(tmp_path), "--n-values", "50", "200",
                "--seeds", "4", "--nz", "10", "--nt", "100"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "tagged.json").read_text())
    assert summary["passed"] is True
    assert (tmp_path / "tagged.csv").exists()


def test_latp_command(tmp_path):
    code = run(["latp", "--out", str(tmp_path), "--grid", "100",
                "--replicas", "1200"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "latp.json").read_text())
    assert summary["all_passed"] is True


def test_latp_command_failed_check_writes_report(tmp_path):
    # ten replicas fail a Monte Carlo check; the report is still written
    code = run(["latp", "--out", str(tmp_path), "--seed", "3",
                "--replicas", "10", "--grid", "50"])
    assert code == EXIT_ASSERTION
    summary = json.loads((tmp_path / "latp.json").read_text())
    assert summary["all_passed"] is False


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    land = tmp_path / "landing"
    monkeypatch.setenv("RANKFLOW_OUTDIR", str(land))
    run(["solve", "--config", f"{CONFIGS}/zero_rate.json",
         "--out", str(tmp_path / "ignored"), "--nz", "5", "--nt", "20"])
    assert (land / "y_c.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_unknown_flag_is_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", "x", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,option", [
    ("solve", "--seed"), ("sweep", "--seed"), ("couple", "--seed"),
    ("tagged", "--seed"), ("tagged", "--workers"),
    ("tagged", "--class-indicator"), ("couple", "--class-indicator")])
def test_command_rejects_option_it_ignores(command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", f"{CONFIGS}/constant_unit.json",
              option, "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "latp"])
@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_command_refuses_seed_outside_uint32(command, seed, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path), "--seed", seed]
    if command == "simulate":
        argv += ["--config", f"{CONFIGS}/constant_unit.json", "--n", "5"]
    else:
        argv += ["--grid", "20", "--replicas", "10"]
    assert run(argv) == EXIT_INVALID
    assert "seed: must be an integer in [0, 2**32)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_latp_refuses_replicas_below_one(replicas, tmp_path, capsys):
    argv = ["latp", "--out", str(tmp_path), "--replicas", replicas, "--grid", "20"]
    assert run(argv) == EXIT_INVALID
    assert "replicas: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_latp_refuses_non_finite_horizon(horizon, tmp_path, capsys):
    argv = ["latp", "--out", str(tmp_path), "--horizon", horizon]
    assert run(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: horizon: must be positive and finite")


@pytest.mark.parametrize("option, value, name", [
    ("--nt", "-3", "n_t"), ("--nz", "0", "n_z"), ("--max-iter", "0", "max_iter"),
    ("--tol", "nan", "tol"), ("--tol", "0", "tol"), ("--tol", "inf", "tol"),
])
def test_solve_refuses_bad_settings(option, value, name, tmp_path, capsys):
    argv = ["solve", "--config", f"{CONFIGS}/zero_rate.json",
            "--out", str(tmp_path), option, value]
    assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {name}: must be")


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "10"],
    ["sweep", "--n-values", "10", "--seeds", "2"],
])
def test_identity_flow_refuses_negative_grid(command, tmp_path, capsys):
    argv = command + ["--config", f"{CONFIGS}/zero_rate.json",
                      "--out", str(tmp_path), "--flow", "identity",
                      "--nt", "-3"]
    assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        "error: n_t: must be >= 1, got -3")


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["sweep", "couple"])
def test_plan_refuses_workers_below_one(command, workers, tmp_path, capsys):
    argv = [command, "--config", f"{CONFIGS}/zero_rate.json",
            "--out", str(tmp_path), "--n-values", "10", "--seeds", "2",
            "--nz", "5", "--nt", "10", "--workers", workers]
    assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: workers: must be >= 1")


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("validate", "solve", "simulate", "sweep", "couple",
                "tagged", "latp"):
        assert cmd in out


@pytest.mark.parametrize("grid", ["0", "-4"])
def test_latp_refuses_grid_below_one(grid, tmp_path, capsys):
    argv = ["latp", "--out", str(tmp_path), "--grid", grid, "--replicas", "10"]
    assert run(argv) == EXIT_INVALID
    assert "grid: must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["solve", "--config", f"{CONFIGS}/zero_rate.json", "--nt", "4096"],
     "error: n_t: 4096 makes a table of 16785409 entries, above the "
     "16777216 allowed"),
    (["simulate", "--config", f"{CONFIGS}/zero_rate.json", "--n", "5",
      "--flow", "identity", "--nt", "4096"],
     "error: n_t: 4096 makes a table "),
    (["latp", "--grid", "4096", "--replicas", "10"],
     "error: step: 4097 grid nodes make a table above 16777216 entries"),
], ids=["solve", "simulate-identity", "latp"])
def test_command_refuses_oversize_grid(argv, message, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.iterdir())


def test_solve_refuses_too_coarse_time_grid(tmp_path, capsys):
    # a step of 1 against the mixture's rate 2 zeroes the trapezoid
    # Volterra divisor 1 - h w / 2
    argv = ["solve", "--config", f"{CONFIGS}/constant_mixture.json",
            "--nz", "2", "--nt", "1", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: n_t: too coarse")
    assert not list(tmp_path.iterdir())
