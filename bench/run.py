"""Benchmark of the dgn pipeline on three synthetic workloads.

    python3 bench/run.py --workload large-n --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run generates its inputs from ``--seed``, repeats the pipeline
(iodp, three trainings, four evaluations) for up to ``--seconds`` seconds,
checks the outputs, and prints one ``metric <name> = <value> <unit>`` line
per metric and, last, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics, taken from
spans around every public function of the package (see ``bench/METRICS.md``).
Work files go to ``.bench_work/``, results and spans to ``.bench_out/``.
Exit status: 0 when every operation and check passed, 1 when one failed,
2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from statistics import median

# One BLAS thread measures the program, not the scheduler, and is the plain
# single-threaded baseline.  Set before numpy is first imported.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "large-n")  # the ones BENCHMARK.json lists
# desk, the CLI's reference configuration, runs the same way but is not
# listed: on a shared 2-vCPU host its timings spread past any allowed bound
# (see bench/METRICS.md).
UNLISTED = ("desk",)
SETUP_REPEATS = 2  # per batch; an untraced run times one batch before every round
SETUP_MIN_SECONDS = 0.5  # short set-ups repeat until a batch adds up to this
MIN_ROUNDS = 2  # checkpoint digests are compared across rounds
MIN_STAGE_SECONDS = 0.75  # shorter stages repeat within a timed round

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "iodp_s": "s",
    "train_baseline_sps": "1/s",
    "train_tei_sps": "1/s",
    "train_full_sps": "1/s",
    "eval_ips": "1/s",
    "peak_rss_mb": "MB",
    "acc_baseline": "fraction",
    "acc_plugin": "fraction",
    "acc_full": "fraction",
}
TRAIN_METRIC = {"baseline": "train_baseline_sps", "train-eval-iodp": "train_tei_sps", "full": "train_full_sps"}
ACC_METRIC = {"baseline": "acc_baseline", "eval-only-iodp": "acc_plugin", "full": "acc_full"}

# per-layer metric -> (span, field, unit); fields are summaries of the span
# name or counters that a hook on that span fills in
SPAN_METRICS = {
    "nn.sigmoid.s": ("nn.sigmoid", "s", "s"),
    "nn.sigmoid.calls": ("nn.sigmoid", "calls", "count"),
    "nn.backward.s": ("nn.backward", "s", "s"),
    "nn.backward.calls": ("nn.backward", "calls", "count"),
    "model.forward_parts.self_s": ("model.forward_parts", "self_s", "s"),
    "model.forward_parts.calls": ("model.forward_parts", "calls", "count"),
    "model.train.s": ("model.train", "s", "s"),
    "model.train.self_s": ("model.train", "self_s", "s"),
    "nn.adam_step.s": ("nn.adam_step", "s", "s"),
    "nn.adam_step.calls": ("nn.adam_step", "calls", "count"),
    "graph.extract_local_knowledge.s": ("graph.extract_local_knowledge", "s", "s"),
    "graph.row_normalize.s": ("graph.row_normalize", "s", "s"),
    "graph.adjacency_bytes": ("graph.row_normalize", "adjacency_bytes", "bytes_computed"),
    "graph.uniform_rows": ("graph.extract_local_knowledge", "uniform_rows", "count"),
    "nn.propagate.s": ("nn.propagate", "s", "s"),
    "nn.propagate.calls": ("nn.propagate", "calls", "count"),
    "nn.propagate.flops": ("nn.propagate", "propagate_flops", "flop_computed"),
    "corpus.nn_resize.s": ("corpus.nn_resize", "s", "s"),
    "corpus.nn_resize.calls": ("corpus.nn_resize", "calls", "count"),
    "prototype.count.s": ("prototype.count", "s", "s"),
    "prototype.build_prototype.self_s": ("prototype.build_prototype", "self_s", "s"),
    "prototype.pair_presence_bytes": ("prototype.count", "pair_presence_bytes", "bytes"),
    "corpus.load_corpus.s": ("corpus.load_corpus", "s", "s"),
    "corpus.load_corpus.calls": ("corpus.load_corpus", "calls", "count"),
    "corpus.save_corpus.s": ("corpus.save_corpus", "s", "s"),
    "fileio.atomic_write_bytes.s": ("fileio.atomic_write_bytes", "s", "s"),
    "fileio.bytes_written": ("fileio.atomic_write_bytes", "bytes_written", "bytes"),
    "fileio.files_written": ("fileio.atomic_write_bytes", "files_written", "count"),
    "cli.gen.s": ("cli.gen", "s", "s"),
    "cli.iodp.s": ("cli.iodp", "s", "s"),
    "cli.train.s": ("cli.train", "s", "s"),
    "cli.eval.s": ("cli.eval", "s", "s"),
    "model.evaluate.s": ("model.evaluate", "s", "s"),
}
# per-layer metrics derived from whole rounds rather than one span
DERIVED_UNITS = {"train.graph_share": "fraction", "train.loop_share": "fraction", "trace.overhead_s": "s"}

# counters read from the arguments and results of traced calls; bytes and
# flops are computed from array shapes, not measured
HOOKS = {
    "fileio.atomic_write_bytes": lambda args, kwargs, result: {
        "bytes_written": len(kwargs["data"] if "data" in kwargs else args[1]),
        "files_written": 1,
    },
    "graph.extract_local_knowledge": lambda args, kwargs, result: {
        "uniform_rows": int((result.sum(axis=1) == 0).sum()),
    },
    "graph.row_normalize": lambda args, kwargs, result: {"adjacency_bytes": result.nbytes},
    # row sums n^2, a @ v 2n^2c, self loop and degree division 2nc
    "nn.propagate": lambda args, kwargs, result: {
        "propagate_flops": result.shape[0] ** 2 * (1 + 2 * result.shape[1]) + 2 * result.size,
    },
    "prototype.count": lambda args, kwargs, result: {"pair_presence_bytes": result.pair_presence.nbytes},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the pipeline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "src_dgn_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dgn").glob("*.py"))),
    }


class Tally:
    """Operations attempted and failed; a failed check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks[name] = bool(ok)
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")


def run_round(w, steps, tally, tracer=None, memory=False, min_stage_s=0.0) -> dict:
    """One pass of the pipeline: stage seconds, accuracies, memory peaks, digests.

    A stage shorter than ``min_stage_s`` is repeated until its calls add up
    to that; every call's seconds are kept.  With a tracer every stage is a
    root span; with ``memory`` each stage's tracemalloc peak above what was
    live when it started is recorded.
    """
    calls, accuracy, peaks, repeated_differently = {}, {}, {}, []
    lo = len(tracer.starts) if tracer else 0
    t_round = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        for stage, step in steps:
            if memory:
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            seconds, results = [], []
            with tracer.span(f"stage.{stage}") if tracer else nullcontext():
                while not seconds or sum(seconds) < min_stage_s:
                    tally.attempted += 1
                    t0 = time.perf_counter()
                    results.append(step())
                    seconds.append(time.perf_counter() - t0)
            calls[stage] = seconds
            if memory:
                peaks[stage] = (tracemalloc.get_traced_memory()[1] - live) / 2**20
            if any(r != results[0] for r in results):
                repeated_differently.append(stage)
            if stage.startswith("eval-"):
                accuracy[stage.removeprefix("eval-")] = results[0]
    wall = time.perf_counter() - t_round
    span_range = (lo, len(tracer.starts)) if tracer else None
    counters = dict(tracer.counters) if tracer else {}
    if tracer:
        tracer.counters.clear()
    return {
        "kind": "traced" if tracer else "memory" if memory else "plain",
        "wall_s": wall,
        "calls": calls,
        "accuracy": accuracy,
        "repeated_differently": repeated_differently,
        "peaks_mb": peaks,
        "digests": w.digests(),
        "spans": span_range,
        "counters": counters,
    }


def stage_seconds(rounds: list[dict]) -> dict[str, float]:
    """Mean seconds per call of each stage over every call in ``rounds``."""
    return {
        stage: sum(sum(r["calls"][stage]) for r in rounds) / sum(len(r["calls"][stage]) for r in rounds)
        for stage in rounds[0]["calls"]
    }


def end_to_end_metrics(rounds: list[dict], setup_times: list[float], shape) -> dict:
    """Times are means per call over all rounds, so rates are total work over total time.

    A mean, not a median over rounds: on a shared host a stage can run at one
    of two speeds for a whole round, and the median of three or four rounds
    jumps between them where the mean moves with their share.
    """
    t = stage_seconds(rounds)
    evals = [v for k, v in t.items() if k.startswith("eval-")]
    metrics = {
        "setup_s": median(setup_times),
        "pipeline_s": sum(t.values()),
        "iodp_s": t["iodp"],
        "eval_ips": len(evals) * shape.n_test / sum(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for mode, name in TRAIN_METRIC.items():
        metrics[name] = shape.n_train * shape.epochs_for(mode) / t[f"train-{mode}"]
    for mode, name in ACC_METRIC.items():
        metrics[name] = rounds[0]["accuracy"][mode]
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer, setup: dict, rounds: list[dict], call_cost: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced set-up plus one traced round.

    Span metrics are medians over the traced rounds, stage peaks medians over
    the memory rounds.  ``trace.overhead_s`` is what tracing adds to one
    pipeline pass: ``call_cost`` times the wrapped calls of a traced round,
    plus the time its hooks took.  Metrics of a span whose function no longer
    exists are left out and the span is returned as absent.
    """
    import numpy as np
    import tracer as tr

    spans = tracer.arrays()
    names = np.asarray(tracer.names, dtype=object)
    span_names = names[spans["name_id"]]
    stage = names[spans["name_id"][tr.roots(spans)]]
    in_train = np.array([n.startswith("stage.train-") for n in stage], dtype=bool)
    graph_layer = np.array([n.startswith("graph.") or n == "nn.propagate" for n in span_names], dtype=bool)
    loop_layer = np.array([n.startswith(("nn.", "model.")) for n in span_names], dtype=bool) & ~graph_layer
    hook = span_names == tr.HOOK_SPAN
    wrapped = ~hook & np.array([not n.startswith("stage.") for n in span_names], dtype=bool)
    duration = spans["end"] - spans["start"]
    own = tr.self_times(spans)
    index = np.arange(own.size)

    def segment(seg):
        lo, hi = seg["spans"]
        in_seg = (index >= lo) & (index < hi)
        return in_seg, tr.summarize(tracer.names, spans, in_seg), seg["counters"]

    _, setup_summary, setup_counters = segment(setup)
    per_round = []
    for r in (r for r in rounds if r["kind"] == "traced"):
        in_round, summary, counters = segment(r)
        values = {}
        for metric, (span, field, _) in SPAN_METRICS.items():
            if field in ("s", "self_s", "calls"):
                values[metric] = summary[span][field] + setup_summary[span][field] if span in summary else 0
            else:
                values[metric] = counters.get(field, 0) + setup_counters.get(field, 0)
        train_s = summary.get("model.train", {}).get("s", 0.0)
        for metric, layer in (("train.graph_share", graph_layer), ("train.loop_share", loop_layer)):
            values[metric] = float(own[in_round & in_train & layer].sum()) / train_s if train_s else 0.0
        values["trace.overhead_s"] = call_cost * int((in_round & wrapped).sum()) + float(duration[in_round & hook].sum())
        per_round.append(values)

    units = {m: unit for m, (_, _, unit) in SPAN_METRICS.items()} | DERIVED_UNITS
    metrics = {m: (median([v[m] for v in per_round]), units[m]) for m in per_round[0]}
    memory = [r for r in rounds if r["kind"] == "memory"]
    for name in memory[0]["peaks_mb"]:
        metrics[f"stage.{name}.peak_mb"] = (median([r["peaks_mb"][name] for r in memory]), "MB")

    absent = tracer.absent({span for span, _, _ in SPAN_METRICS.values()})
    gone = {m for m, (span, _, _) in SPAN_METRICS.items() if span in absent}
    if "model.train" in absent:
        gone |= {"train.graph_share", "train.loop_share"}
    return {m: v for m, v in metrics.items() if m not in gone}, absent


def set_up(w, tally, min_s: float) -> list[float]:
    """A batch of timed set-ups: at least SETUP_REPEATS of them and ``min_s`` seconds."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < min_s:
        w.clean()
        tally.attempted += 1
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(args, w, steps, tally, tracer) -> tuple[list[float], float, dict | None, list[dict]]:
    """Set up, then run rounds for at most ``args.seconds`` (at least the minimum rounds).

    An untraced run times a batch of set-ups before every round, so that
    set-up is sampled across the whole run and not in one moment of the
    host's speed; after the first batch it writes the set-up's files
    (large-n only) untimed and keeps their seconds.  A traced run traces one
    set-up with its writes and cycles plain, traced and memory rounds.  The
    first failed operation ends the measurement and is tallied.
    """
    setup_times, write_s, setup_segment, rounds = [], 0.0, None, []
    try:
        if tracer:
            tally.attempted += 1
            lo = len(tracer.starts)
            with tracer.installed(), tracer.span("stage.setup"):
                w.setup()
                w.write()
            setup_segment = {"spans": (lo, len(tracer.starts)), "counters": dict(tracer.counters)}
            tracer.counters.clear()
            kinds = ("plain", "traced", "memory")
        else:
            kinds = ("plain",)
        min_stage_s, min_setup_s = (0.0, 0.0) if args.smoke else (MIN_STAGE_SECONDS, SETUP_MIN_SECONDS)
        lengths: dict[str, list[float]] = {kind: [] for kind in kinds}  # set-ups included
        started = time.perf_counter()
        while True:
            kind = kinds[len(rounds) % len(kinds)]
            t_kind = time.perf_counter()
            if not tracer:
                setup_times += set_up(w, tally, min_setup_s)
                if not rounds:
                    t0 = time.perf_counter()
                    w.write()
                    write_s = time.perf_counter() - t0
            if kind == "memory":
                tracemalloc.start()
            try:
                rounds.append(
                    run_round(
                        w, steps, tally,
                        tracer=tracer if kind == "traced" else None,
                        memory=kind == "memory",
                        min_stage_s=min_stage_s if kind == "plain" else 0.0,
                    )
                )
            finally:
                tracemalloc.stop()
            lengths[kind].append(time.perf_counter() - t_kind)
            upcoming = kinds[len(rounds) % len(kinds)]
            done = [t for ts in lengths.values() for t in ts]
            estimate = median(lengths[upcoming]) if lengths[upcoming] else max(done)
            # another round starts only if it should end within --seconds
            enough = len(rounds) >= max(MIN_ROUNDS, len(kinds))
            if enough and time.perf_counter() - started + estimate > args.seconds:
                break
    except Exception as exc:  # a failed operation ends the run and is reported
        tally.failed += 1
        tally.errors.append(f"{type(exc).__name__}: {exc}")
    return setup_times, write_s, setup_segment, rounds


def check_outputs(w, train_modes, rounds, tally, tracer) -> None:
    """Checks outside every timed region; each failure counts as a failed operation."""
    import tracer as tr

    first = rounds[0]
    for mode in train_modes:
        tally.check(
            f"checkpoint_{mode}_repeatable", all(r["digests"][mode] == first["digests"][mode] for r in rounds)
        )
    tally.check(
        "accuracy_repeatable",
        all(r["accuracy"] == first["accuracy"] and not r["repeated_differently"] for r in rounds),
    )
    for name, ok in w.checks(first["accuracy"]).items():
        tally.check(name, ok)
    if tracer:
        tally.check("spans_nest", not tr.check_nesting(tracer.arrays()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgn" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'dgn'}; run from a dgn checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dgn
    import tracer as tr
    import workloads as wl

    if Path(dgn.__file__).resolve().parent != (SRC / "dgn").resolve():
        print(f"error: imported dgn from {dgn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args, np)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = ROOT / ".bench_work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = tr.Tracer(dgn, HOOKS) if args.trace else None
    try:
        w = wl.make(args.workload, args.seed, workdir, smoke=args.smoke)
        setup_times, write_s, setup_segment, rounds = measure(args, w, wl.steps(w), tally, tracer)
        if not tally.failed:
            check_outputs(w, wl.TRAIN_MODES, rounds, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, absent = {}, []
    if not tally.failed:
        if tracer:
            metrics, absent = per_layer_metrics(tracer, setup_segment, rounds, tr.call_cost(dgn))
            np.savez(out_dir / f"{stem}-spans.npz", names=np.asarray(tracer.names), **tracer.arrays())
        else:
            metrics = end_to_end_metrics(rounds, setup_times, w.shape)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {
        "env": env,
        "result": result,
        "absent": absent,
        "checks": tally.checks,
        "errors": tally.errors,
        "setup_s": setup_times,
        "untimed_write_s": write_s,
        "rounds": [{k: v for k, v in r.items() if k not in ("spans", "counters")} for r in rounds],
    }
    if tracer and not tally.failed:
        # what the metric estimates, as measured: mostly the host's drift between two rounds
        pipeline = {k: sum(stage_seconds([r for r in rounds if r["kind"] == k]).values()) for k in ("plain", "traced")}
        record["trace_overhead_measured_s"] = pipeline["traced"] - pipeline["plain"]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    for name in absent:
        print(f"absent {name}: no such function to wrap; its metrics are not reported")
    for error in tally.errors:
        print(f"error {error}")
    kinds = [r["kind"] for r in rounds]
    print("rounds " + ", ".join(f"{k} {kinds.count(k)}" for k in dict.fromkeys(kinds)))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
