#!/usr/bin/env python3
"""eczero benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload family-scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; eczero is imported from ./src.
With --trace 0 it times the calls a user makes, with no shims installed,
and reports the end-to-end metrics of BENCHMARK.json.  With --trace 1 it
runs half the time untraced, then installs timing shims around the
public functions of each layer and reports the per-layer metrics.  Every
answer is checked; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def setup_once() -> float:
    """Wall time of a fresh interpreter importing eczero.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import eczero.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class SetupSampler:
    """Set-up samples spread evenly over the run, taken between rounds.

    The host's speed drifts over tens of seconds; samples taken back to
    back would all land in one state.
    """

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.times: list[float] = []

    def __call__(self) -> None:
        elapsed = time.perf_counter() - self.start
        while len(self.times) < SETUP_SAMPLES and len(self.times) * self.seconds <= elapsed * SETUP_SAMPLES:
            self.times.append(setup_once())

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(setup_once())
        return statistics.median(self.times)


def timed_rounds(wl, state: dict, seconds: float, tracer=None, between=None) -> float:
    """Whole rounds until ``seconds`` have passed; returns ops/s at each
    step's fastest time over those rounds.

    The host switches between a fast and a slow speed about 25-35% apart
    for seconds to minutes at a time, so a mean or median over a run
    mostly reports how long it sat in the slow state.  Each step's best
    time over the rounds depends on that less.
    """
    best: list[float] = []
    per_round = 0
    start = time.perf_counter()
    while True:
        r = state["round"]
        steps = wl.steps(r)
        mark = tracer.mark() if tracer else None
        results, times = [], []
        for step in steps:
            t0 = time.perf_counter()
            results.append(step())
            times.append(time.perf_counter() - t0)
        if tracer:
            state["layers"].append(tracer.summarize(mark))
        attempted, failed = wl.collect(r, results)
        best = times if not best else [min(x, y) for x, y in zip(best, times)]
        per_round = attempted - failed
        state["round"] += 1
        state["attempted"] += attempted
        state["failed"] += failed
        print(f"round {r}: {per_round}/{attempted} ops in {sum(times):.3f} s", file=sys.stderr)
        if between:
            between()
        if time.perf_counter() - start >= seconds:
            return per_round / sum(best)


def layer_value(name: str, layers: list[dict]):
    """A per-layer metric from the traced rounds: times are the fastest
    round's, counts come from the first traced round."""
    first = layers[0]
    for suffix, key in ((".self_ms", "self_ms"), (".ms", "ms"), (".calls", "calls")):
        if name.endswith(suffix):
            span = name[: -len(suffix)]
            if key == "calls":
                return first["calls"].get(span, 0)
            return min(rounds[key].get(span, 0.0) for rounds in layers)
    for key in ("counters", "derived"):
        if name in first[key]:
            if name.endswith("_ms"):
                return min(rounds[key][name] for rounds in layers)
            return first[key][name]
    raise KeyError(f"no per-layer value for {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eczero" / "cli.py").is_file():
        print(f"eczero sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eczero

    if Path(eczero.__file__).resolve().parent != SRC / "eczero":
        print(f"imported eczero from {eczero.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from checks import CheckFailed
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    state = {"round": 0, "attempted": 0, "failed": 0, "layers": []}
    values: dict = {}
    correct = True
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        wl.warmup()
        if args.trace:
            untraced = timed_rounds(wl, state, args.seconds / 2)
            if state["round"] % 2:
                # Survey rounds alternate JSON and CSV reports; traced counts
                # come from the first traced round, so start it on JSON.
                timed_rounds(wl, state, 0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_rounds(wl, state, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write(ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
            values["trace.slowdown"] = untraced / traced
            layers = state["layers"]
            for key in ("calls", "counters"):
                # Rounds repeat in pairs, one per report format.
                if any(layers[i][key] != layers[i - 2][key] for i in range(2, len(layers))):
                    print(f"warning: traced rounds disagree on {key}", file=sys.stderr)
            for m in wanted:
                if m["name"] not in values:
                    values[m["name"]] = layer_value(m["name"], state["layers"])
            _print_layers(state["layers"][0])
        else:
            setup = SetupSampler(args.seconds)
            setup()
            values["ops_per_s"] = timed_rounds(wl, state, args.seconds, between=setup)
            values["setup_s"] = setup.median()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.check()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": state["attempted"], "failed": state["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def _print_layers(summary: dict) -> None:
    """Every traced function of the first traced round, by self time, to stderr."""
    print(f"{'span':48} {'calls':>9} {'ms':>10} {'self ms':>10}", file=sys.stderr)
    for name, self_ms in sorted(summary["self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{name:48} {summary['calls'][name]:9d} {summary['ms'][name]:10.2f} {self_ms:10.2f}",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
