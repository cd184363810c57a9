"""End-to-end trace-generation benchmark.

    python3 perfbench/run.py --workload export-fast --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every line before the last is for people; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of an
untraced run.  ``--trace 1`` reports per-layer metrics: set-up runs
traced, then the timed phase runs untraced and again, on the same
inputs, traced.  The exit code is 1 when a correctness gate fails and 2
when the program's source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("export-fast", "serve-open")
END_TO_END = (
    ("setup_s", "s"),
    ("flows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("within_slo_share", "ratio"),
    ("proto_compliance", "ratio"),
)
#: switches that select an engine; cleared so each workload runs the
#: defaults unless it sets one itself
ENGINE_SWITCHES = ("REPRO_INFER", "REPRO_TRAIN", "REPRO_NN_BACKEND",
                   "REPRO_NN_THREADS")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"workload_seed": seed}
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads_env"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    env["numpy"] = np.__version__
    env["python"] = platform.python_version()
    env["git_revision"] = git_revision()
    for module, name in (("repro.core.infer", "infer_mode"),
                         ("repro.core.train", "train_mode")):
        try:
            mode = getattr(__import__(module, fromlist=[name]), name)
        except (ImportError, AttributeError):
            continue
        env[name] = mode()
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is not at {src}",
              file=sys.stderr)
        return 2
    for name in ENGINE_SWITCHES:
        os.environ.pop(name, None)
    if args.workload == "export-fast":
        # The compiled engine through its environment switch: once the
        # switch is gone, the workload still runs whatever is left.
        os.environ["REPRO_INFER"] = "compiled"
    sys.path.insert(0, str(src))

    import hooks
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    print("perfbench env", json.dumps(fingerprint(args.seed)), flush=True)
    tracer = tracing.Tracer()
    hook_list = hooks.repro_hooks()
    absent: dict[str, str] = {}

    def traced(fn):
        installed = tracing.install(tracer, hook_list)
        absent.update(installed.absent)
        try:
            return fn()
        finally:
            installed.remove()

    if args.trace:
        model = traced(workloads.set_up)
        layer = hooks.setup_metrics(tracer)
        tracer.reset()
    else:
        model = workloads.set_up()

    workloads.warm_up(model, args.workload, args.seed)

    def timed(units=None):
        if args.workload == "serve-open":
            return workloads.serve(model, args.seed, args.seconds)
        return workloads.export(model, args.seed, args.seconds, OUT_DIR,
                                units=units)

    rss_reset = reset_peak_rss()
    runs = [timed()]
    peak = peak_rss_mb()
    if args.trace:
        runs.append(traced(lambda: timed(units=runs[0].units)))
        untraced, traced_run = runs
        timed_layer, notes = hooks.timed_metrics(
            tracer, traced_run.wall,
            overhead=(untraced.metrics["flows_per_s"]
                      / traced_run.metrics["flows_per_s"]),
            phase_a_ids=traced_run.phase_a_ids,
            generator_lags_ms=traced_run.generator_lags_ms,
        )
        layer.update(timed_layer)
        traced_run.notes += notes
        spans = [[s.name, s.start, s.end, s.parent, s.thread]
                 for s in tracer.spans]
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(spans))
        values = {name: (layer[name], unit) for name, unit in hooks.PER_LAYER
                  if name not in absent}
    else:
        run = runs[0]
        measured = dict(run.metrics, setup_s=model.setup_s, peak_rss_mb=peak)
        values = {name: (measured[name], unit) for name, unit in END_TO_END}
        if not rss_reset:
            run.notes.append("peak_rss_mb is the whole process's peak: "
                             "the peak mark could not be reset")

    problems = [p for run in runs for p in run.problems]
    for run in runs:
        for note in run.notes:
            print("perfbench note", note)
    for metric, reason in sorted(absent.items()):
        print(f"perfbench absent {metric}: {reason}")
    for problem in problems:
        print("perfbench FAIL", problem)
    for name, (value, unit) in values.items():
        print(f"perfbench metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run.tally.attempted for run in runs),
        "failed": sum(run.tally.failed for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
