"""qlevy benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a qlevy checkout:

    python3 bench/run.py --workload gram-ladder --seed 1 --seconds 20 --trace 0

The workload is a closed loop: one caller, one task at a time, whole rounds
of the workload's tasks until `--seconds` have passed (the last round may
run over).  Every task output goes through the workload's correctness gate.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the machine, the sample counts and the unscaled wall times.

Times are scaled to a reference speed: fixed reference work (dict-and-tuple
traffic and small numpy products) runs between tasks, and each task's wall
time is multiplied by REF_NOMINAL_S over the median of the four reference
times nearest the task.  On a machine shared with other jobs, whose speed
drifts by tens of percent over minutes, this keeps runs comparable; the
reference work is the benchmark's own code, so no change to qlevy moves it.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` spends half the time untraced and half traced, checks that both
halves produce identical task outputs, and reports the per-layer metrics.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import metrics
import workloads
from tracing import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3           # fresh interpreters whose set-up time is the median
# peak_rss_mb is read after this many rounds: RSS grows with every round at
# this commit, so a figure read after a fixed amount of work stays comparable
# however many rounds a run fits into its time.
RSS_ROUNDS = 3
REF_LOOPS = 8_000
REF_NUMPY_CALLS = 1_500
REF_NOMINAL_S = 0.009       # the reference work's time on a quiet 2-core sandbox
SETUP_TIMEOUT_S = 120
OUT_DIR = ".bench_out"


def reference_s():
    """Wall time of fixed work shaped like qlevy's: dict-and-tuple traffic,
    then small numpy products.  The collector is off, so that the size of
    qlevy's heap does not change it."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(REF_LOOPS):
            key = (i % 97, i % 89, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        sorted(table.items())
        vec = np.linspace(0.0, 1.0, 9) + 0.5j
        mat = np.outer(vec, vec.conj()) / 9.0 + np.eye(9)
        acc = 0j
        for _ in range(REF_NUMPY_CALLS):
            acc += np.vdot(vec, mat @ vec)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Record:
    task: str
    seconds: float           # wall time
    output: object
    error: "str | None"      # QLevyError type name
    problem: "str | None"    # why the output failed its check
    rss_mb: float
    ref_s: float = REF_NOMINAL_S   # reference time around the task

    @property
    def scaled(self):
        """Wall time scaled to the reference speed."""
        return self.seconds * REF_NOMINAL_S / self.ref_s


@dataclass
class Phase:
    records: list
    round_walls: list       # wall time of each whole round, in seconds
    peak_rss_mb: float      # ru_maxrss after the first `min_rounds` rounds

    @property
    def rounds(self):
        return len(self.round_walls)

    def attempted(self):
        return len(self.records)

    def failed(self):
        return sum(1 for r in self.records if r.error or r.problem)

    def wrong(self):
        return sum(1 for r in self.records if r.problem)

    def time_scale(self):
        """Factor from wall seconds to scaled seconds, for the whole phase."""
        return REF_NOMINAL_S / statistics.median(r.ref_s for r in self.records)

    def tasks_per_s(self, scaled=True):
        """Tasks attempted per second of (scaled) task time."""
        return len(self.records) / sum(r.scaled if scaled else r.seconds
                                       for r in self.records)


def _rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def run_task(task, error_type, tracer=None, task_id=0):
    """Run one task and check its output.  A QLevyError fails the task; any
    other error propagates and aborts the run."""
    if tracer is not None:
        tracer.task_id = task_id
    start = time.perf_counter()
    try:
        output, error = task.run(), None
    except error_type as exc:
        output, error = None, type(exc).__name__
    seconds = time.perf_counter() - start
    problem = None if error else task.check(output)
    return Record(task.name, seconds, output, error, problem, _rss_mb())


def measure(workload, seconds, tracer=None, min_rounds=1):
    """Whole rounds of the workload's tasks until `seconds` have passed and
    at least `min_rounds` rounds are done, with the reference work before
    and after every task."""
    from qlevy.errors import QLevyError

    records = []
    refs = [reference_s()]        # refs[i] and refs[i + 1] surround task i
    round_walls = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for task in workload.tasks:
            records.append(run_task(task, QLevyError, tracer, len(records)))
            refs.append(reference_s())
        round_walls.append(time.perf_counter() - round_start)
        if len(round_walls) == min_rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(round_walls) >= min_rounds and time.perf_counter() - start >= seconds:
            break
    for i, record in enumerate(records):
        record.ref_s = statistics.median(refs[max(0, i - 1):i + 3])
    return Phase(records, round_walls, peak_rss_mb)


def set_up(name, seed, out_dir):
    """Import qlevy, generate the inputs and run the untimed warm-up task.

    Returns (workload, wall seconds from the first `import qlevy` to the
    end, the same scaled to the reference speed).
    """
    start = time.perf_counter()
    workloads.import_qlevy()
    from qlevy.errors import QLevyError

    workload = workloads.build(name, workloads.make_inputs(name, seed), out_dir)
    warm = run_task(workload.warmup, QLevyError)
    if warm.error or warm.problem:
        raise RuntimeError(f"warm-up task {warm.task} failed: {warm.error or warm.problem}")
    wall = time.perf_counter() - start
    ref = statistics.median(reference_s() for _ in range(5))
    return workload, wall, wall * REF_NOMINAL_S / ref


def _setup_sample(args, root):
    """(wall, scaled) set-up seconds of a fresh interpreter running this
    script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["wall_s"], sample["setup_s"]


def _blas_threads():
    """Threads in effect for each OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                found[Path(path).name] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def outputs_match(reference, phase):
    """True when each task's first output in `phase` equals its first in `reference`."""
    first = {}
    for r in reference.records:
        first.setdefault(r.task, r.output)
    seen = {}
    for r in phase.records:
        seen.setdefault(r.task, r.output)
    return all(first[name] == output for name, output in seen.items())


def traced_run(workload, seconds, spans_path):
    """Half the time untraced, half traced, then the known-defect probes.

    Returns (untraced phase, traced phase, probe records, per-layer values,
    spans dropped past the cap).
    """
    from qlevy.errors import QLevyError

    untraced = measure(workload, seconds / 2)
    with Tracer(metrics.SIZES) as tracer:
        traced = measure(workload, seconds / 2, tracer)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        values = metrics.per_layer(tracer, untraced, traced, workload.ladder)
        dropped = tracer.dropped
        # the probes run once, after the per-round figures are taken
        tracer.reset()
        probes = [run_task(task, QLevyError, tracer) for task in workload.probes]
        values["subcoalg.errors"] += tracer.layer_errors("subcoalg")
    values["probes.failed"] = sum(1 for r in probes if r.error or r.problem)
    return untraced, traced, probes, values, dropped


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qlevy" / "__init__.py").is_file():
        print(f"error: no qlevy sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # QLEVY_THREADS is not enough: cli.main applies it with setdefault, and
    # run_experiment never goes through main.  Set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    run_dir = root / OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload, wall, setup_s = set_up(args.workload, args.seed, run_dir)
        if args.setup_only:
            print(json.dumps({"wall_s": wall, "setup_s": setup_s}))
            return 0
        return report(args, root, workload, (wall, setup_s))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, root, workload, setup):
    info = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace:
        spans_path = root / OUT_DIR / f"spans-{args.workload}.tsv"
        untraced, traced, probes, values, dropped = traced_run(
            workload, args.seconds, spans_path)
        phases = [untraced, traced]
        match = outputs_match(untraced, traced)
        wrong = untraced.wrong() + traced.wrong()
        info.update({"rounds": [untraced.rounds, traced.rounds],
                     "outputs_identical": match,
                     "probes": {r.task: r.error or r.problem or "ok" for r in probes},
                     "spans_file": str(spans_path.relative_to(root)),
                     "spans_dropped": dropped})
        specs = metrics.PER_LAYER
    else:
        setups = [setup] + [_setup_sample(args, root) for _ in range(SETUP_SAMPLES - 1)]
        phase = measure(workload, args.seconds, min_rounds=RSS_ROUNDS)
        values = metrics.end_to_end(phase, workload.top, [s for _w, s in setups])
        phases, match, wrong = [phase], True, phase.wrong()
        info.update(metrics.samples(phase, workload, [w for w, _s in setups]))
        specs = metrics.END_TO_END
    failures = {}
    for phase in phases:
        for r in phase.records:
            if r.error or r.problem:
                key = f"{r.task}: {r.error or r.problem}"
                failures[key] = failures.get(key, 0) + 1
    info["failures"] = failures
    print(json.dumps({"info": info}))
    result = {
        "correct": bool(match and wrong == 0),
        "attempted": sum(p.attempted() for p in phases),
        "failed": sum(p.failed() for p in phases),
        "metrics": {spec[0]: {"value": values[spec[0]], "unit": spec[1]} for spec in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
