"""moduli-sys benchmark: exact pipelines over Q and F_5, the census, cold CLI calls.

Run from the root of a moduli-sys checkout:

    python3 perfbench/run.py --workload pipeline-q --seed 1 --seconds 20 --trace 0

The workloads and the metric names, units and bounds are in
``BENCHMARK.json``; ``perfbench/README.md`` explains them.  With
``--trace 0`` a run reports every end-to-end metric; with ``--trace 1``
it reports every per-layer metric from a traced run (layers a workload
does not exercise read 0).  ``failed`` counts the items whose outputs
fail the benchmark's checks.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each phase runs in a fresh single-threaded interpreter (``worker.py``)
that imports the library from the checkout's ``src``; this process only
generates inputs, starts the children one at a time and aggregates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from random import Random

import inputs
import speed
from spans import NO_TRACE, Tracer, digest, percentile, span_cost_s

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # before the workload, and as many again after it
SPEED_SAMPLES = 10  # reference chunks before each setup probe and after the last
CLI_SPEED_SAMPLES = 3  # reference chunks before each cold CLI call
IMPORT_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
F_Q = 5
CLI_SHAPE = (2, 3, 1)
CLI_CANDIDATES = 32
FIBONACCI = {"field": "Q", "m": 1, "p": 1,
             "blocks": [[str(v)] for v in (1, 1, 2, 3, 5, 8, 13, 21)]}


class BenchError(Exception):
    pass


def children_cpu_s() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("MODULI_SYS_CENSUS_BOUND", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def parse_importtime(text: str) -> dict[str, float]:
    """First cumulative import time, in microseconds, of each module."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), float(parts[1]))
    return out


class Run:
    """State of one benchmark run: children started, samples and counts."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.started = time.perf_counter()
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = child_env(root)
        self.import_s: list[float] = []
        self.speed_s: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.layers: dict[str, float] = {}

    def spans_path(self, workload: str) -> str:
        return os.path.join(self.out_dir, f"spans-{workload}-seed{self.seed}.jsonl")

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = TIME_LIMIT_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=timeout)

    def worker(self, spec: dict) -> dict:
        proc = self.spawn([sys.executable, os.path.join(HERE, "worker.py"),
                           json.dumps(dict(spec, root=self.root))])
        if proc.returncode != 0:
            raise BenchError(f"{spec['mode']} worker exited with {proc.returncode}:\n"
                             f"{proc.stderr.decode()[-3000:]}")
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        self.import_s.append(result["import_s"])
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.problems += result.get("problems", [])
        self.problems += [f"generator self-test: {p}" for p in result.get("self_test", [])]
        return result

    def note_speed(self, raw_s: float, scaled_s: float) -> None:
        self.notes.append(f"timed work: {raw_s:.3f} s of CPU time as measured, {scaled_s:.3f} s "
                          f"at nominal host speed (measured/nominal {raw_s / scaled_s:.3f})")

    def probe_setup(self) -> None:
        """Time ``import moduli_sys`` in fresh interpreters, and the host speed around them."""
        code = "import time; t = time.process_time(); import moduli_sys; print(time.process_time() - t)"
        for _ in range(SETUP_PROBES):
            self.speed_s += [speed.sample() for _ in range(SPEED_SAMPLES)]
            proc = self.spawn([sys.executable, "-c", code])
            if proc.returncode != 0:
                raise BenchError(f"import moduli_sys failed:\n{proc.stderr.decode()[-3000:]}")
            self.import_s.append(float(proc.stdout.decode().split()[-1]))
        self.speed_s += [speed.sample() for _ in range(SPEED_SAMPLES)]

    def probe_imports(self) -> None:
        """Bare interpreter start and the import breakdown from -X importtime."""
        bare, cumulative = [], {"moduli_sys": [], "sympy": [], "numpy": []}
        for _ in range(IMPORT_PROBES):
            start = children_cpu_s()
            self.spawn([sys.executable, "-c", "pass"])
            bare.append(children_cpu_s() - start)
            proc = self.spawn([sys.executable, "-X", "importtime", "-c", "import moduli_sys"])
            parsed = parse_importtime(proc.stderr.decode())
            for name, values in cumulative.items():
                values.append(parsed.get(name, 0.0))
        self.layers["cli.interpreter_ms"] = percentile(bare, 0.5) * 1e3
        self.layers["cli.import_ms"] = percentile(cumulative["moduli_sys"], 0.5) / 1e3
        self.layers["cli.import.sympy_ms"] = percentile(cumulative["sympy"], 0.5) / 1e3
        self.layers["cli.import.numpy_ms"] = percentile(cumulative["numpy"], 0.5) / 1e3


def latency_metrics(work: float, times: list[float]) -> dict[str, float]:
    """Throughput, the median item and the mean of the slowest tenth.

    The tail is a mean, not the 90th percentile itself: pipeline items
    fall into clusters by shape and kind, and a percentile that sits on
    the edge of a cluster jumps between runs.
    """
    tail = sorted(times)[int(0.9 * len(times)):]
    return {
        "work_per_s": work / sum(times),
        "item_p50_ms": percentile(times, 0.5) * 1e3,
        "item_tail90_ms": sum(tail) / len(tail) * 1e3,
    }


# -- workloads --------------------------------------------------------------------


def run_pipeline(run: Run, q: int | None) -> dict[str, float]:
    workload = "pipeline-q" if q is None else "pipeline-fq"
    spec = {"mode": "pipeline", "q": q, "seed": run.seed}
    if not run.trace:
        run.probe_setup()
        res = run.worker(dict(spec, seconds=run.seconds, trace=0))
        run.probe_setup()
    else:
        res = run.worker(dict(spec, seconds=run.seconds, trace=1, spans_path=run.spans_path(workload)))
        run.layers.update(res["layers"])
        run.probe_imports()
    run.notes.append(f"output digest {res['digest']} over the first {res['digest_items']} items")
    run.notes.append(f"{len(res['item_times'])} systems timed")
    run.note_speed(res["raw_s"], sum(res["item_times"]))
    run.notes.append(f"{res['cell_mismatches']} of {res['cc_items']} cc systems meet the known "
                     "moduli_point cell defect (n >= 4, two or more occupied columns)")
    return latency_metrics(len(res["item_times"]), res["item_times"])


def run_census(run: Run) -> dict[str, float]:
    spec = {"mode": "census", "seed": run.seed}
    if not run.trace:
        run.probe_setup()
        # A pass takes several seconds; the first one fixes how many it
        # takes to fill the run.
        passes = [run.worker(dict(spec, trace=0))]
        for _ in range(math.ceil(run.seconds / passes[0]["pass_s"]) - 1):
            passes.append(run.worker(dict(spec, trace=0)))
        run.probe_setup()
    else:
        passes = [run.worker(dict(spec, trace=1, spans_path=run.spans_path("census")))]
        run.layers.update(passes[0]["layers"])
        run.probe_imports()
    digests = sorted({p["digest"] for p in passes})
    run.notes.append(f"output digest {','.join(digests)} over {passes[0]['digest_items']} census reports")
    run.notes.append(f"{len(passes)} census passes timed, {passes[0]['states']} nominal states each")
    return latency_metrics(sum(p["states"] for p in passes), [p["pass_s"] for p in passes])


def cli_commands(run: Run) -> tuple[list[tuple[str, list[str]]], dict]:
    """The command set, with every input it reads written by the benchmark."""
    rel = os.path.join(".perfbench_out", f"cli-seed{run.seed}")
    os.makedirs(os.path.join(run.root, rel), exist_ok=True)
    paths = {name: os.path.join(rel, f"{name}.json") for name in ("q_system", "f5_system", "markov")}
    with open(os.path.join(run.root, paths["markov"]), "w", encoding="utf-8") as fh:
        json.dump(FIBONACCI, fh)
    rng = Random(f"cli-{run.seed}")
    candidates = {
        "q_system": [inputs.system_json(inputs.make_system(rng, CLI_SHAPE, "random", None),
                                        CLI_SHAPE, None) for _ in range(CLI_CANDIDATES)],
        "f5_system": [inputs.system_json(inputs.make_system(rng, CLI_SHAPE, "unobservable", F_Q),
                                         CLI_SHAPE, F_Q) for _ in range(CLI_CANDIDATES)],
    }
    commands = [
        ("analyze", ["analyze", "--system", paths["q_system"]]),
        ("analyze", ["analyze", "--system", paths["f5_system"]]),
        ("canon", ["canon", "--system", paths["q_system"]]),
        ("embed", ["embed", "--system", paths["f5_system"]]),
        ("realize", ["realize", "--markov", paths["markov"]]),
        ("census", ["census", "--m", "1", "--p", "1", "--n-max", "2", "--q", "2,3"]),
        ("random", ["random", "--field", str(F_Q), "--m", "2", "--n", "2", "--p", "1",
                    "--seed", str(run.seed), "--cc"]),
    ]
    ref = {"mode": "cli-ref", "candidates": candidates, "paths": paths,
           "commands": [argv for _, argv in commands]}
    return commands, ref


def run_cli(run: Run) -> dict[str, float]:
    commands, ref_spec = cli_commands(run)
    expected = run.worker(ref_spec)["expected"]
    offset = run.seed % len(commands)

    def call(k: int) -> float:
        """One cold CLI call, checked against the in-process reference.

        Every command succeeds on a correct program, so a nonzero exit
        code fails even when ``cli.main`` gave the same one.
        """
        run.speed_s += [speed.sample() for _ in range(CLI_SPEED_SAMPLES)]
        start = children_cpu_s()
        proc = run.spawn([sys.executable, "-m", "moduli_sys", *commands[k][1]])
        elapsed = children_cpu_s() - start
        run.attempted += 1
        if proc.returncode != 0 or [proc.returncode, proc.stdout.decode()] != expected[k]:
            run.failed += 1
            run.problems.append(f"{' '.join(commands[k][1])}: exit {proc.returncode} "
                                f"(cli.main: exit {expected[k][0]}), or stdout differs")
        return elapsed

    def calls_for(seconds: float, tr=NO_TRACE) -> list[float]:
        times = []
        while not times or sum(times) < seconds:
            k = (offset + len(times)) % len(commands)
            times.append(tr.call(f"cli.{commands[k][0]}", len(times), call, k))
        return times

    run.spawn([sys.executable, "-m", "moduli_sys", *commands[offset][1]])  # warm the file cache
    if not run.trace:
        run.probe_setup()
        times = calls_for(run.seconds)
        run.probe_setup()
    else:
        tr = Tracer(time.perf_counter)  # the child's CPU time is not on this process's clock
        times = calls_for(run.seconds, tr)
        tr.write(run.spans_path("cli-cold"))
        names = [span[0] for span in tr.spans]
        for name in set(names):
            run.layers[f"{name}.p50_ms"] = percentile(
                [t for other, t in zip(names, times) if other == name], 0.5) * 1e3
        run.layers["trace.overhead_share"] = len(tr.spans) * span_cost_s(time.perf_counter) / sum(times)
        run.probe_imports()
    run.notes.append(f"output digest of the command set: {digest(expected)}")
    run.notes.append(f"{len(times)} CLI calls timed")
    if not run.trace:
        # A cold call is mostly an import, and tracks the reference chunk
        # only over the whole run, like setup_s.
        raw_s = sum(times)
        times = [speed.scaled_by_run(t, run.speed_s) for t in times]
        run.note_speed(raw_s, sum(times))
    metrics = latency_metrics(len(times), times)
    # Every command costs about the same, so the slowest tenth of calls
    # would be the few noisiest calls; the tail is the slowest command's
    # median call instead.
    by_command: dict[int, list[float]] = {}
    for i, t in enumerate(times):
        by_command.setdefault((offset + i) % len(commands), []).append(t)
    metrics["item_tail90_ms"] = max(percentile(v, 0.5) for v in by_command.values()) * 1e3
    return metrics


WORKLOADS = {
    "pipeline-q": lambda run: run_pipeline(run, None),
    "pipeline-fq": lambda run: run_pipeline(run, F_Q),
    "census": run_census,
    "cli-cold": run_cli,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "moduli_sys", "__init__.py")):
        print("error: run from the root of a moduli-sys checkout; src/moduli_sys is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    run = Run(root, args)
    try:
        measured = WORKLOADS[args.workload](run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    error_rate = run.failed / max(run.attempted, 1)
    if args.trace:
        measured = dict(run.layers, error_rate=error_rate)
    else:
        import_s = percentile(run.import_s, 0.5)
        measured["setup_s"] = speed.scaled_by_run(import_s, run.speed_s)
        run.notes.append(f"setup: median import {import_s:.4f} s of CPU time as measured, "
                         f"{measured['setup_s']:.4f} s at nominal host speed")
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{time.perf_counter() - run.started:.1f} s")
    for line in run.notes + [f"problem: {p}" for p in run.problems[:20]]:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:<42} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'error_rate':<42} {error_rate:>14.6g} share "
              f"({run.failed} failed of {run.attempted} attempted; a per-layer metric of traced runs)")
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
