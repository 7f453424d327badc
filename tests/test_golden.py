"""Reproducibility gate: seeded CLI outputs keep their recorded bytes.

Each command runs at a small size; the SHA-256 of every file it writes and
of its stdout (with the output directory replaced by ``OUT``) must equal
the hash recorded in ``golden.json``.  A change that moves any of these
bytes either is a fault or says why in CHANGES.md and records the new
hashes with

    PYTHONPATH=src python tests/test_golden.py

The stratified class assignments of the shipped specs are gated the same
way at N = 1e5 and, for the affine spec, at N = 2^20: their float
tie-breaks change with N, and the CLI runs above stay at N <= 200.  So
are the limit solver's tables at the benchmark's 20x400 grid and the
401-node survival tables of the shipped LATP kernels, because the CLI runs
solve only at 10x50.  The engines' event logs are gated at N = 1e5 and, on
a steep spec, at N = 2^15, where the original pass crosses several windows.

Floating-point results depend on the numpy build and on the SIMD paths it
dispatches to, so the gate skips on another numpy version or machine.
"""

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import STEEP_SPECS
from rankflow import (assign_population, load_spec, simulate,
                      simulate_coupled, solve_y_c, spec_from_config,
                      survival_solve)
from rankflow.cli import main
from rankflow.harness import shipped_omegas

AFFINE = "configs/affine_two_class.json"
MIXTURE = "configs/constant_mixture.json"
TABLE = "bench/table_two_class.json"
SOLVER = ["--nz", "10", "--nt", "50"]
PLAN = ["--n-values", "50", "100", "--seeds", "2"]

RUNS = {
    "solve": ["solve", "--config", AFFINE] + SOLVER,
    "solve-mixture": ["solve", "--config", MIXTURE] + SOLVER,
    "solve-table": ["solve", "--config", TABLE] + SOLVER,
    "simulate": ["simulate", "--config", AFFINE, "--n", "200", "--seed", "3"],
    "simulate-flow": ["simulate", "--config", AFFINE, "--n", "200", "--seed",
                      "3", "--mode", "flow"] + SOLVER,
    "simulate-table": ["simulate", "--config", TABLE, "--n", "200", "--seed",
                       "3"],
    "simulate-table-flow": ["simulate", "--config", TABLE, "--n", "200",
                            "--seed", "3", "--mode", "flow"] + SOLVER,
    "sweep": ["sweep", "--config", AFFINE, "--class-indicator", "0"]
             + SOLVER + PLAN,
    "sweep-flow": ["sweep", "--config", AFFINE, "--flow", "solve"]
                  + SOLVER + PLAN,
    "couple": ["couple", "--config", AFFINE] + SOLVER + PLAN,
    "tagged": ["tagged", "--config", AFFINE] + SOLVER + PLAN,
    "tagged-mixture": ["tagged", "--config", MIXTURE] + SOLVER + PLAN,
    "latp": ["latp", "--grid", "100", "--replicas", "1000", "--seed", "1"],
}

ASSIGNMENTS = [(path, 10 ** 5) for path in (
    AFFINE, MIXTURE, "configs/constant_unit.json", "configs/zero_rate.json",
    TABLE)] + [(AFFINE, 2 ** 20)]

LIMIT_SPECS = [MIXTURE, AFFINE, "configs/constant_unit.json", TABLE]
LIMIT_GRID = {"n_z": 20, "n_t": 400}
SURVIVAL_NODES = 401

ENGINE_SEED = 1
ENGINE_RUNS = [(AFFINE, 10 ** 5), (TABLE, 10 ** 5),
               ("steep:affine_0_5_5_0", 2 ** 15)]

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _platform():
    features = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    features = getattr(features, "__cpu_features__", {})
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in features.items() if on)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root, capture):
    """Run every command in its own directory under ``root``; returns
    {name: sha256} over exit codes, stdout and every file written.
    ``capture()`` returns the stdout written since its last call."""
    hashes = {}
    for name, argv in RUNS.items():
        out = os.path.join(root, name)
        code = main(argv + ["--out", out])
        hashes[f"{name}:exit"] = str(code)
        hashes[f"{name}:stdout"] = _sha(capture().replace(out, "OUT").encode())
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                hashes[f"{name}/{fname}"] = _sha(fh.read())
    return hashes


def assignment_hashes():
    """{"path@N": sha256} of each stratified ``class_index`` in ASSIGNMENTS."""
    return {f"{path}@{n}": _sha(assign_population(load_spec(path),
                                                  n).class_index.tobytes())
            for path, n in ASSIGNMENTS}


def limit_hashes():
    """{"path:table": sha256} of ``solve_y_c``'s flow tables and boundary
    phi at LIMIT_GRID, and {"label:p"/"label:f": sha256} of each shipped
    kernel's ``survival_solve`` on SURVIVAL_NODES nodes of [0, 1]."""
    hashes = {}
    for path in LIMIT_SPECS:
        sol = solve_y_c(load_spec(path), **LIMIT_GRID)
        for name, arr in (("init_values", sol.flow.init_values),
                          ("bdry_values", sol.flow.bdry_values),
                          ("bdry_phi", sol.evaluator.bdry_phi)):
            hashes[f"{path}:{name}"] = _sha(arr.tobytes())
    grid = np.linspace(0.0, 1.0, SURVIVAL_NODES)
    for label, omega in shipped_omegas(1.0).items():
        table = survival_solve(omega, grid)
        hashes[f"{label}:p"] = _sha(table.p.tobytes())
        hashes[f"{label}:f"] = _sha(table.f.tobytes())
    return hashes


def engines_hashes():
    """{"label:array": sha256} of the event logs of ``simulate`` on each of
    ENGINE_RUNS and of both sides of ``simulate_coupled`` on the affine spec
    at N = 1e5, with its decoupling times."""
    hashes = {}

    def log_hashes(label, log):
        for name in ("times", "particles", "pre_positions"):
            hashes[f"{label}:{name}"] = _sha(getattr(log, name).tobytes())

    for path, n in ENGINE_RUNS:
        spec = (spec_from_config(STEEP_SPECS[path.split(":")[1]])
                if path.startswith("steep:") else load_spec(path))
        log_hashes(f"simulate:{path}@{n}",
                   simulate(assign_population(spec, n), seed=ENGINE_SEED))
    spec = load_spec(AFFINE)
    original, flow_driven, record = simulate_coupled(
        assign_population(spec, 10 ** 5), solve_y_c(spec).flow,
        seed=ENGINE_SEED)
    log_hashes(f"coupled-original:{AFFINE}@100000", original)
    log_hashes(f"coupled-flow:{AFFINE}@100000", flow_driven)
    hashes[f"coupled:{AFFINE}@100000:sigma"] = _sha(record.sigma.tobytes())
    return hashes


def _recorded():
    golden = json.loads(GOLDEN_PATH.read_text())
    recorded, here = golden["platform"], _platform()
    if here != recorded:
        pytest.skip(f"hashes recorded on {recorded['machine']} with numpy "
                    f"{recorded['numpy']} and its CPU features; this is "
                    f"{here['machine']} with numpy {here['numpy']}")
    return golden


def test_cli_outputs_match_recorded_hashes(tmp_path, capsys, monkeypatch):
    golden = _recorded()
    monkeypatch.delenv("RANKFLOW_OUTDIR", raising=False)
    got = run_all(str(tmp_path), lambda: capsys.readouterr().out)
    want = golden["hashes"]
    assert sorted(got) == sorted(want)
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"outputs changed: {moved}"


def test_assignments_match_recorded_hashes():
    assert assignment_hashes() == _recorded()["assignments"]


def test_limit_tables_match_recorded_hashes():
    assert limit_hashes() == _recorded()["limit"]


def test_engine_logs_match_recorded_hashes():
    assert engines_hashes() == _recorded()["engines"]


if __name__ == "__main__":
    import io
    import tempfile
    from contextlib import redirect_stdout

    buf = io.StringIO()

    def capture():
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    os.environ.pop("RANKFLOW_OUTDIR", None)
    with tempfile.TemporaryDirectory() as root, redirect_stdout(buf):
        hashes = run_all(root, capture)
    GOLDEN_PATH.write_text(json.dumps({"platform": _platform(),
                                       "hashes": hashes,
                                       "assignments": assignment_hashes(),
                                       "limit": limit_hashes(),
                                       "engines": engines_hashes()},
                                      indent=2, sort_keys=True) + "\n")
