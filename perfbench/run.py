"""Benchmark of the ordinalproto training pipeline, driven through its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

With --trace 0 a run measures the end-to-end metrics: wall_s (median wall
time of the workload's commands), fit_steps_per_s (median over
repetitions of steps over time inside `training.fit`), setup_s (median of
SETUP_REPEATS fresh-interpreter set-ups, see setup_probe.py) and
peak_rss_mib. The repetitions run in PARTS fresh interpreters, one after
another, because each interpreter carries its own speed offset of a few
percent; pooling them keeps the median steady. With --trace 1 one
interpreter alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py plus the tracing overhead. Each
interpreter repeats the workload until its share of --seconds has passed,
at least MIN_ROUNDS times.

Times are reported in reference seconds: wall time corrected by the CPU
speed sampled on the same core while it passes (speed.py), because the
host's core speed drifts by up to ~1.7x during a run.

Every command counts as one operation. It fails if it raises, exits
non-zero, or writes outputs that differ from the first repetition (byte
for byte, across interpreters too), from the committed reference (seed 0),
or from what the package's public functions recompute. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Work files, the full result and the spans go to .perfbench_work/.
"""

import os

# One BLAS thread, set before numpy loads, so the load fits a 2-core machine
# and does not depend on how many cores the host has.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 7
PARTS = 3
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60
# Slack over its share of --seconds that one interpreter part may take.
PART_SLACK_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    package = SRC / "ordinalproto"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"package source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ordinalproto import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported {cli.__file__}, not the checkout's package")
    return cli


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def prepare(name: str, seed: int, work: Path, tiny: bool) -> Path:
    """Check the arguments and write the workload's config; returns its path."""
    if name not in wl.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; valid: {', '.join(wl.WORKLOADS)}")
    if seed < 0:
        raise BenchError(f"seed must be >= 0, got {seed}")
    load_cli()
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{name}.cfg"
    wl.write_config(wl.config_for(wl.WORKLOADS[name], seed, tiny), config)
    return config


class FitClock:
    """Times `training.fit` at the name the CLI calls and counts its steps;
    two clock reads per fit, so it is used in untraced runs too."""

    def __init__(self, training):
        self.training = training
        self.intervals: list[tuple[float, float]] = []
        self.steps = 0

    def __enter__(self):
        original = self.original = self.training.fit

        def timed(state, train_ds, cfg):
            start = time.perf_counter()
            try:
                return original(state, train_ds, cfg)
            finally:
                self.intervals.append((start, time.perf_counter()))
                self.steps += wl.steps_of_fit(train_ds, cfg)

        self.training.fit = timed
        return self

    def __exit__(self, *exc):
        self.training.fit = self.original


@dataclass
class Rep:
    """One repetition of a workload's commands; times are perf_counter
    intervals, converted to reference seconds once the run is done."""

    wall: tuple[float, float]
    fits: list[tuple[float, float]]
    steps: int
    outputs: dict
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def flag(self, command: int, problems: list[str]) -> None:
        if problems:
            self.failed.add(command)
            self.problems.extend(problems)


def run_rep(cli, workload: wl.Workload, config: Path, out: Path, tracer=None) -> Rep:
    if out.exists():
        shutil.rmtree(out)
    errors = []
    with FitClock(cli.training) as clock, (tracer or contextlib.nullcontext()):
        start = time.perf_counter()
        for command in workload.commands:
            argv = wl.command_argv(command, config, out)
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            except Exception:  # a failed operation; the run goes on and reports it
                errors.append([f"{argv[0]} raised:\n{traceback.format_exc()}"])
                continue
            errors.append([] if code == 0 else [f"{argv[0]} exited {code}: {sink.getvalue()}"])
        wall = (start, time.perf_counter())
    outputs = wl.read_outputs(out) if out.is_dir() else {}
    rep = Rep(wall, clock.intervals, clock.steps, outputs)
    for index, problems in enumerate(errors):
        rep.flag(index, problems)
    try:
        rep.flag(0, wl.check_run_dir(outputs, out))
    except Exception:
        rep.flag(0, [f"run directory check raised:\n{traceback.format_exc()}"])
    return rep


def run_reps(name: str, seed: int, seconds: float, trace: bool, work: Path = WORK,
             tiny: bool = False, write_reference: bool = False) -> dict:
    """Repeat one workload in this interpreter for `seconds`; with `trace`,
    alternate untraced and traced repetitions. Returns the raw result."""
    config = prepare(name, seed, work, tiny)
    cli = load_cli()
    workload = wl.WORKLOADS[name]
    reference = None
    if seed == wl.REFERENCE_SEED and not tiny and not write_reference:
        reference = json.loads(REFERENCE.read_text())[name]
    tracer = Tracer() if trace else None
    reps: dict[bool, list[Rep]] = {False: [], True: []}
    first = None
    with SpeedSampler() as speed:
        deadline = time.perf_counter() + seconds
        while len(reps[False]) < MIN_ROUNDS or time.perf_counter() < deadline:
            for traced in (False, True) if trace else (False,):
                rep = run_rep(cli, workload, config, work / "out", tracer if traced else None)
                if first is None:
                    first = rep
                    if reference is not None:
                        numbers = wl.reported_numbers(rep.outputs)
                        rep.flag(0, wl.compare_to_reference(numbers, reference))
                else:
                    rep.flag(0, wl.diff_outputs(rep.outputs, first.outputs))
                reps[traced].append(rep)

    if write_reference:
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[name] = wl.reported_numbers(first.outputs)
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    all_reps = reps[False] + reps[True]
    result = {
        "attempted": len(all_reps) * len(workload.commands),
        "failed": sum(len(rep.failed) for rep in all_reps),
        "problems": [p for rep in all_reps for p in rep.problems],
        "outputs_sha256": hashlib.sha256(
            b"".join(n.encode() + b"\0" + blob for n, blob in first.outputs.items())
        ).hexdigest(),
        "wall_s_each": [speed.reference_seconds(*rep.wall) for rep in reps[False]],
        "raw_wall_s_each": [rep.wall[1] - rep.wall[0] for rep in reps[False]],
        "fit_steps_per_s_each": [
            rep.steps / sum(speed.reference_seconds(*fit) for fit in rep.fits)
            for rep in reps[False] if rep.fits
        ],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_factor": speed.mean_factor(),
    }
    if trace:
        untraced = statistics.median(result["wall_s_each"])
        traced = statistics.median(speed.reference_seconds(*rep.wall) for rep in reps[True])
        result["metrics"] = {
            **layer_metrics(tracer, len(reps[True]), speed.reference_seconds,
                            speed.mean_factor()),
            "trace.overhead_share": (traced / untraced - 1.0, "share"),
            "trace.untraced_wall_s": (untraced, "s"),
        }
        result["absent"] = tracer.absent
        tracer.write_spans(work / f"spans-{name}-seed{seed}.csv")
    return result


def probe_setup(workload: wl.Workload, config: Path) -> tuple[float, float]:
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config),
            workload.first_method, str(workload.first_shots)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    end = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return start, end


def run_part(name: str, seed: int, seconds: float, work: Path, tiny: bool) -> dict:
    """Untraced repetitions in a fresh interpreter (run.py --part), which
    has ended by the time this returns, on every path out of it."""
    argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--part", "--work", str(work)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + PART_SLACK_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"part interpreter failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_end_to_end(name: str, seed: int, seconds: float, work: Path = WORK,
                   tiny: bool = False) -> dict:
    """Set-up probes here, then the repetitions in PARTS fresh interpreters."""
    config = prepare(name, seed, work, tiny)
    with SpeedSampler() as speed:
        probes = [probe_setup(wl.WORKLOADS[name], config) for _ in range(SETUP_REPEATS)]
    parts = [run_part(name, seed, seconds / PARTS, work, tiny) for _ in range(PARTS)]

    result = {key: [v for part in parts for v in part[key]]
              for key in ("wall_s_each", "raw_wall_s_each", "fit_steps_per_s_each", "problems")}
    result["attempted"] = sum(part["attempted"] for part in parts)
    result["failed"] = sum(part["failed"] for part in parts)
    digests = {part["outputs_sha256"] for part in parts}
    if len(digests) > 1:
        # The producing command of every interpreter but the first one counts.
        result["failed"] += PARTS - 1
        result["problems"].append(f"outputs differ between interpreters: {sorted(digests)}")
    result["setup_s_each"] = [speed.reference_seconds(*probe) for probe in probes]
    result["metrics"] = {
        "wall_s": (statistics.median(result["wall_s_each"]), "s"),
        "fit_steps_per_s": (statistics.median(result["fit_steps_per_s_each"]), "1/s"),
        "setup_s": (statistics.median(result["setup_s_each"]), "s"),
        "peak_rss_mib": (max(part["peak_rss_mib"] for part in parts), "MiB"),
    }
    result["speed_factor"] = [part["speed_factor"] for part in parts]
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path = WORK,
                 tiny: bool = False) -> dict:
    """One benchmark run, as the command line makes it."""
    result = (run_reps(name, seed, seconds, True, work, tiny) if trace
              else run_end_to_end(name, seed, seconds, work, tiny))
    result.update(workload=name, seed=seed, trace=int(trace), machine=machine_info(),
                  correct=result["failed"] == 0)
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    threads = ",".join(f"{k}={v}" for k, v in m["blas_threads"].items())
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} {threads}")
    print(f"workload: {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"repetitions={len(result['wall_s_each'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"failed_share = {share:.6g} ({result['failed']} failed of "
          f"{result['attempted']} operations attempted)")
    for label in result.get("absent", []):
        print(f"absent entry point: {label}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process; prints
    each run's lines and a combined result whose metric names are prefixed
    with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for metric, entry in last["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"{', '.join(wl.WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's reported numbers as the seed-0 reference")
    # Internal: one untraced part of a run, started by run_part.
    parser.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, default=WORK, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.part:
            part = run_reps(args.workload, args.seed, args.seconds, False, args.work, args.tiny)
            print(json.dumps(part))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.write_reference:
            if args.seed != wl.REFERENCE_SEED:
                raise BenchError(f"the reference is taken at seed {wl.REFERENCE_SEED}")
            run_reps(args.workload, args.seed, 0, False, write_reference=True)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print_result(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
