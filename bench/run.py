"""rankflow benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload particles --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run sets up its workload several times (set-up time
is the median), warms every call it times, then repeats whole rounds of
the workload until ``--seconds`` have passed (at least one round), and
checks the last round's outputs apart from the program.  Its times are
scaled to a reference speed by the samples of ``spans.SpeedSampler``.
With ``--trace 1`` it instead sets up every workload once, runs one traced
round of every workload between two untraced rounds of the named one, then
the per-call layer probes, and reports the per-layer metrics in raw
seconds.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

STARTED = perf_counter()

# one BLAS / OpenMP thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import NullRecorder, Recorder, SpeedSampler  # noqa: E402

LAYERS = ("streams", "intensity", "srp", "flow", "latp", "measure", "harness")


def _import_library():
    """Import rankflow from this checkout's source tree."""
    src = ROOT / "src"
    if not (src / "rankflow" / "__init__.py").is_file():
        raise SystemExit(f"no rankflow sources under {src}")
    sys.path.insert(0, str(src))
    import rankflow
    if Path(rankflow.__file__).resolve().parent != src / "rankflow":
        raise SystemExit(f"rankflow imported from {rankflow.__file__}, not {src}")


def _workloads(name):
    """All workload classes, once ``name`` is known to be one of them."""
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS


def run_untraced(name, seed, seconds):
    with SpeedSampler() as sampler:
        _import_library()
        imported = (STARTED, perf_counter())
        from workloads import OUT

        OUT.mkdir(exist_ok=True)
        wl = _workloads(name)[name](seed)
        setups = []
        for _ in range(wl.setup_repeats):
            rec = Recorder()
            with rec.span("setup"):
                wl.setup(rec)
            setups.append(rec)
        wl.warm()
        rounds = []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            out = None  # the previous round's outputs are not kept alive
            rec = Recorder()
            with rec.span("round"):
                out = wl.round(rec)
            rounds.append(rec)
    counts = wl.count(Recorder(), out)
    fails = wl.check(out, counts)
    scale = sampler.scaled
    metrics = {
        "setup_s": scale(*imported) + median(r.seconds("setup", scale) for r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(wl.metrics(setups, rounds, counts, scale))
    return fails, len(rounds) * wl.ops_per_round, metrics


def run_traced(name, seed):
    _import_library()
    from workloads import OUT

    OUT.mkdir(exist_ok=True)
    rec = Recorder()
    wls = {n: cls(seed) for n, cls in _workloads(name).items()}
    for wl in wls.values():
        wl.setup(rec)
        wl.warm()
    untraced = []

    def untraced_round():
        t0 = perf_counter()
        wls[name].round(NullRecorder())
        untraced.append(perf_counter() - t0)

    untraced_round()
    fails, ops, metrics = [], 0, {}
    for n, wl in wls.items():
        with rec.span(f"bench.round.{n}") as s:
            out = wl.round(rec)
        if n == name:
            traced = s.elapsed
            untraced_round()
        counts = wl.count(rec, out)
        fails += wl.check(out, counts)
        ops += wl.ops_per_round
        metrics.update(wl.layer_metrics(rec, out, counts))
        metrics.update(wl.probe(rec, out))
    self_times = rec.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    metrics["trace.overhead_s"] = traced - sum(untraced) / len(untraced)
    rec.write(OUT / f"trace-{name}-seed{seed}.json")
    return fails, ops, metrics


def _declared(metrics, declared):
    """The metrics in declaration order with their declared units."""
    names = [d["name"] for d in declared]
    if set(metrics) != set(names):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(names))} are "
                         "produced but not declared, or declared but not produced")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.trace:
        fails, ops, metrics = run_traced(args.workload, args.seed)
        metrics = _declared(metrics, declared["per_layer"])
    else:
        fails, ops, metrics = run_untraced(args.workload, args.seed, args.seconds)
        metrics = _declared(metrics, declared["end_to_end"])
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": ops, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
