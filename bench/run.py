"""Benchmark runner for hillwalk.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's `src/`; without it the runner exits with a nonzero code and
prints no result.  One process runs one workload; BLAS is pinned to one thread.

With --trace 0 the runner measures set-up (the median of SETUP_SAMPLES
fresh interpreters that import hillwalk and run a small warm-up
eigensolve), warms up in-process, then repeats whole rounds of the
workload's operations, stopping at the round whose end lies nearest to
--seconds, and reports the end-to-end metrics.  With --trace 1 it alternates untraced and traced
rounds and reports per-layer figures from the traced ones; spans go to
.bench_out/.  Either way the first round's outputs are checked, later
rounds must reproduce them, and the last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, median_figures  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import hillwalk\n"
    "pot, _ = hillwalk.two_term(1, 1, 1, 1)\n"
    "hillwalk.eigenvalues(hillwalk.assemble(pot, 'per+', 32))\n"
    "print('ready', flush=True)\n"
)


def warm_up(hw):
    """The set-up children's warm-up, in this process (BLAS init)."""
    pot, _ = hw.two_term(1, 1, 1, 1)
    hw.eigenvalues(hw.assemble(pot, "per+", 32))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import hillwalk from the checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "hillwalk" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hillwalk sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    import hillwalk
    import hillwalk.cli  # noqa: F401  (traced in-process by cli-presets)

    if Path(hillwalk.__file__).resolve().parent != (src / "hillwalk").resolve():
        raise SystemExit(f"bench: hillwalk imported from {hillwalk.__file__}, not {src}")
    return hillwalk


def setup_seconds():
    """Median time from launching a fresh interpreter to its 'ready' line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise SystemExit("bench: set-up child failed")
    return statistics.median(samples)


class Pass:
    """Outcome of the rounds of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations = {}  # op kind -> seconds of each successful op
        self.probe_s = 0.0
        self.first = {}  # label -> first round's result
        self.mismatch = []  # labels whose later result differed from round 1
        self.errors = {}  # label -> last exception text

    def run_round(self, ops, tracer=None):
        t_round = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
                op.op_id = tracer.op
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as err:  # counted as failed; the run goes on
                result = None
                self.failed += 1
                self.errors[op.label] = f"{type(err).__name__}: {err}"
                if not op.probe:
                    traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if op.probe:
                self.probe_s += elapsed
            elif result is not None:
                self.durations.setdefault(op.kind, []).append(elapsed)
            if result is None:
                continue
            if op.label not in self.first:
                self.first[op.label] = result
            elif result != self.first[op.label]:
                self.mismatch.append(op.label)
        return time.perf_counter() - t_round


def main(argv=None):
    args = parse_args(argv)
    hw = import_program()
    rng = random.Random(f"{args.workload}:{args.seed}")
    cls = workloads.WORKLOADS[args.workload]
    extra = {"root": ROOT, "in_process": bool(args.trace)} if cls is workloads.CliPresets else {}
    workload = cls(hw, rng, **extra)
    print(f"workload {args.workload} seed {args.seed}: {workload.describe()}")

    setup_s = None if args.trace else setup_seconds()
    warm_up(hw)
    ops = workload.ops()
    run = Pass()
    tracer = Tracer() if args.trace else None
    traced_rounds, round_walls = [], {"untraced": [], "traced": []}
    cold = []
    t_start = time.perf_counter()
    loop_walls = []
    while True:
        t_loop = time.perf_counter()
        round_walls["untraced"].append(run.run_round(ops, tracer))
        if tracer is not None:
            with tracer.installed():
                round_walls["traced"].append(run.run_round(ops, tracer))
            traced_rounds.append(tracer.layer_figures(op.op_id for op in ops if not op.probe))
            if args.workload == "cli-presets":
                cold.append(workloads.cold_samples(ROOT))
        now = time.perf_counter()
        loop_walls.append(now - t_loop)
        # stop at the whole round whose end lies nearest to --seconds
        if now - t_start + statistics.median(loop_walls) / 2 >= args.seconds:
            break
    wall = time.perf_counter() - t_start
    if args.workload == "cli-presets":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = workload.check(run.first)
    problems += [f"{label}: a later round's output differs from the first"
                 for label in sorted(set(run.mismatch))]
    for label, text in sorted(run.errors.items()):
        print(f"failed: {label}: {text}")
    for line in problems:
        print(f"CHECK FAILED: {line}")

    timed = [d for kind in run.durations.values() for d in kind]
    if not timed:
        raise SystemExit("bench: no operation succeeded")
    for kind, ds in sorted(run.durations.items()):
        print(f"{kind}: p50 {statistics.median(ds):.4f} s over {len(ds)} ops")
    print("round walls: " + " ".join(f"{w:.3f}" for w in round_walls["untraced"]))
    print(f"rounds {len(round_walls['untraced'])}, attempted {run.attempted}, "
          f"failed {run.failed}, checks {'passed' if not problems else 'FAILED'}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(timed) / (wall - run.probe_s), "ops/s"),
            "peak_rss_mib": (peak / 1024, "MiB"),
        }
    else:
        figures = median_figures(traced_rounds)
        if cold:
            figures["cli.interpreter_s"] = statistics.median(c[0] for c in cold)
            figures["cli.import_s"] = statistics.median(c[1] for c in cold)
        else:
            figures["cli.interpreter_s"] = figures["cli.import_s"] = 0.0
        figures["trace.overhead_s"] = (statistics.median(round_walls["traced"])
                                       - statistics.median(round_walls["untraced"]))
        units = {"calls": "count", "walks": "count", "rows": "count",
                 "result_bits": "bits", "useful_ratio": "ratio"}
        metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "s")) for k, v in figures.items()}
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
