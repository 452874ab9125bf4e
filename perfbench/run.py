"""The classpoly benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rr-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop: one job at a time, no
threads, each job under a wall-clock cap.  It samples set-up time in fresh
interpreters, warms up, then repeats passes over the workload's jobs (after
the first, in an order drawn from --seed) until --seconds have passed.
Every output is checked against its reference.  With --trace 0 the passes
are untraced and the end-to-end metrics are printed; with --trace 1
untraced and traced passes alternate and the per-layer metrics are
printed.  The last line of standard output is one JSON object; the lines
before it are a readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import mpmath.libmp

from workloads import (
    WORKLOADS,
    ComputeJob,
    check_compute,
    check_table,
    class_number,
    unit_quotient,
)

# `execute` imports classpoly, so it is imported only after main() has put
# this checkout's src/ first on sys.path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
JOB_CAP_S = 30.0
# No job starts later than this after the process started, so that a run
# with hanging jobs still ends within 180 s.
RUN_LIMIT_S = 150.0

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import classpoly.cli
imported = time.perf_counter()
import classpoly.modfunc
verify = getattr(classpoly.modfunc, "verify_transformation_rules", None)
if verify is not None:
    verify()
print(imported - start, time.perf_counter() - imported)
"""


def sample_setup(count: int):
    """Medians over `count` fresh interpreters, after one discarded sample,
    of (import classpoly.cli, first verify_transformation_rules, the two
    together)."""
    samples = []
    for _ in range(count + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        samples.append(tuple(float(x) for x in out.split()))
    samples = samples[1:]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples),
            statistics.median(s[0] + s[1] for s in samples))


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when fewer than 20 samples put it below the
    median."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
    }


class Measurement:
    """Everything one run collects: outcomes of untraced passes, tracers of
    traced passes, and the problems found while checking outputs."""

    def __init__(self, oracle_classes):
        self.oracle_classes = oracle_classes
        self.untraced = []  # list of passes; a pass is a list of (job, Outcome)
        self.traced = []  # list of (pass wall seconds, Tracer)
        self.problems = []
        self.unexpected = {}  # job label -> status, for failures not in the reference
        self.reference_keys = {}  # job label -> Outcome.key() of its first untraced run

    def check(self, job, out):
        """Check one untraced outcome, then drop its output: outputs run to
        18 MB, and holding a pass's worth would make peak memory depend on
        the job order."""
        if out.status == "ok":
            check = check_compute if isinstance(job, ComputeJob) else check_table
            problems = check(job, out.result)
            self.problems += [f"{job.label}: {p}" for p in problems]
            out.passed = not problems
        elif not (isinstance(job, ComputeJob) and job.ref.failure == out.status):
            self.unexpected[job.label] = f"{out.status} {out.detail}".strip()
        self.reference_keys.setdefault(job.label, out.key())
        out.result = None

    def compare(self, job, out):
        """Refuse a traced outcome that differs from the untraced one."""
        want = self.reference_keys[job.label]
        if "timeout" not in (out.status, want[0]) and out.key() != want:
            raise SystemExit(
                f"traced replay of {job.label} disagrees with run():\n"
                f"  replay {out.key()}\n  run()  {want}\n"
                "the per-layer numbers would describe a different program"
            )
        out.result = None

    # ------------------------------------------------------------------
    @staticmethod
    def attempts(out, max_escalations) -> int:
        """Pipeline attempts of one job: one, plus one per escalation; a job
        that ran out of escalations used them all."""
        if out.status == "ok":
            return 1 + out.escalations
        if out.status == "PrecisionExhaustedError":
            return 1 + max_escalations
        return 1

    def end_to_end(self, setup, max_escalations) -> dict:
        walls = [sum(o.seconds for _, o in p) for p in self.untraced]
        rates = [
            sum(self.oracle_classes[j.label] for j, o in p if o.passed) / wall if wall else 0.0
            for p, wall in zip(self.untraced, walls)
        ]
        outcomes = [o for p in self.untraced for _, o in p]
        failed = sum(not o.passed for o in outcomes)
        return {
            "wall_s": (statistics.median(walls), "s"),
            "classes_per_s": (statistics.median(rates), "1/s"),
            "success_share": ((len(outcomes) - failed) / len(outcomes), "ratio"),
            "attempts": (statistics.median(
                sum(self.attempts(o, max_escalations) for _, o in p)
                for p in self.untraced), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup[2], "s"),
        }

    def per_layer(self, setup) -> dict:
        from execute import CLASS_DATA_LAYERS, FAILURE_KINDS

        def med(fn):
            return statistics.median(fn(wall, tr) for wall, tr in self.traced)

        def seconds(name):
            return med(lambda wall, tr: tr.seconds[name])

        def count(name):
            return med(lambda wall, tr: tr.counts[name])

        def ratio(num, den):
            return med(lambda wall, tr: num(tr) / den(tr) if den(tr) else 0.0)

        def render(wall, tr):
            if not tr.calls["cli.main"]:
                return 0.0
            return tr.seconds["cli.main"] - sum(tr.seconds[n] for n in CLASS_DATA_LAYERS)

        untraced_wall = statistics.median(sum(o.seconds for _, o in p) for p in self.untraced)
        values = lambda tr: tr.calls["modfunc.evaluate"]  # noqa: E731
        metrics = {f"{n}_s": (seconds(n), "s") for n in CLASS_DATA_LAYERS}
        metrics.update({
            "cli.main_s": (seconds("cli.main"), "s"),
            "cli.render_s": (med(render), "s"),
            "conjugates.compute_conjugates_s": (seconds("conjugates.compute_conjugates"), "s"),
            "modfunc.evaluate_s": (seconds("modfunc.evaluate"), "s"),
            "modfunc.values": (med(lambda wall, tr: values(tr)), "count"),
            "modfunc.s_per_value": (ratio(lambda tr: tr.seconds["modfunc.evaluate"], values), "s"),
            "modfunc.useful_value_ratio": (
                ratio(lambda tr: tr.counts["modfunc.useful_values"], values), "ratio"),
            "conjugates.attempts": (count("conjugates.attempts"), "count"),
        })
        for kind in FAILURE_KINDS:
            name = "conjugates.failed_attempts." + kind
            metrics[name] = (count(name), "count")
        metrics.update({
            "conjugates.bits_final": (count("conjugates.bits_final"), "bits"),
            "conjugates.assemble_poly_s": (seconds("conjugates.assemble_poly"), "s"),
            "polyalgebra.round_coefficients_s": (seconds("polyalgebra.round_coefficients"), "s"),
            "polyalgebra.squarefree_part_s": (seconds("polyalgebra.squarefree_part"), "s"),
            "polyalgebra.power_check_s": (seconds("polyalgebra.power_check"), "s"),
            "polyalgebra.eval_poly_s": (seconds("polyalgebra.eval_poly"), "s"),
            "polyalgebra.coeff_bits_max": (count("polyalgebra.coeff_bits_max"), "bits"),
            "setup.import_s": (setup[0], "s"),
            "setup.verify_rules_s": (setup[1], "s"),
            "trace.overhead_s": (med(lambda wall, tr: wall) - untraced_wall, "s"),
            "trace.unaccounted_s": (med(lambda wall, tr: wall - tr.covered), "s"),
        })
        return metrics


def measure(workload_jobs, warm_up, seconds: float, trace: bool, rng,
            setup_samples: int, started: float):
    """Set up, warm up and run passes; returns (Measurement, setup medians)."""
    import classpoly.modfunc
    from execute import Tracer, execute

    setup = sample_setup(setup_samples)
    verify = getattr(classpoly.modfunc, "verify_transformation_rules", None)
    if verify is not None:
        verify()  # the lazy cache every timed pass would otherwise fill once
    oracle = {j.label: class_number(j.disc) * unit_quotient(j.disc, j.level)
              for j in workload_jobs}
    m = Measurement(oracle)

    def one_pass(tracer):
        order = list(workload_jobs)
        # The first pass keeps the listed order: which job runs first sets
        # the heap layout, and with it the peak RSS, by some 6 %.
        if m.untraced:
            rng.shuffle(order)
        outcomes = []
        for job in order:
            gc.collect()  # each job starts from a collected heap, as in a fresh CLI process
            cap = min(JOB_CAP_S, started + RUN_LIMIT_S - time.perf_counter())
            out = execute(job, cap, tracer)
            (m.check if tracer is None else m.compare)(job, out)
            outcomes.append((job, out))
        return outcomes

    for job in warm_up:  # fills lazy caches and first-use imports; discarded
        execute(job, JOB_CAP_S)
    deadline = time.perf_counter() + seconds
    while True:
        m.untraced.append(one_pass(None))
        if trace:
            tracer = Tracer()
            outcomes = one_pass(tracer)
            m.traced.append((sum(o.seconds for _, o in outcomes), tracer))
        if time.perf_counter() >= deadline:
            return m, setup


def check_names(produced: dict, declared: list, kind: str):
    got = sorted((name, unit) for name, (_, unit) in produced.items())
    want = sorted((d["name"], d["unit"]) for d in declared)
    if got != want:
        raise SystemExit(
            f"{kind} metrics do not match BENCHMARK.json:\n"
            f"  only produced: {sorted(set(got) - set(want))}\n"
            f"  only declared: {sorted(set(want) - set(got))}"
        )


def report(name, m: Measurement, e2e: dict, layers: dict | None):
    print(f"workload {name}: {len(m.untraced)} untraced pass(es), {len(m.traced)} traced")
    by_label = {}
    for p in m.untraced:
        for job, out in p:
            by_label.setdefault(job.label, []).append(out)
    for label, outs in by_label.items():
        statuses = sorted({o.status for o in outs})
        esc = sorted({o.escalations for o in outs})
        print(f"  {label:45s} {'/'.join(statuses):24s} "
              f"median {statistics.median(o.seconds for o in outs):8.4f} s  escalations {esc}")
    walls = [sum(o.seconds for _, o in p) for p in m.untraced]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                 "no percentile above the median has ten samples beyond it")
    outcomes = [o for p in m.untraced for _, o in p]
    attempted, failed = len(outcomes), sum(not o.passed for o in outcomes)
    escalations = sum(o.escalations for _, o in m.untraced[0])
    print(f"  wall_s median {statistics.median(walls):.4f} s over {len(walls)} passes; {tail_text}")
    print("  pass walls " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f}; "
          f"escalations in the first pass {escalations}")
    for label, status in m.unexpected.items():
        print(f"  unexpected failure {label}: {status}")
    for problem in m.problems[:20]:
        print(f"  OUTPUT CHECK FAILED {problem}")
    for metric, (value, unit) in e2e.items():
        print(f"  e2e   {metric:40s} {value:14.6g} {unit}")
    if layers is not None:
        for metric, (value, unit) in layers.items():
            print(f"  layer {metric:40s} {value:14.6g} {unit}")
        covered = statistics.median(tr.covered for _, tr in m.traced)
        traced = statistics.median(w for w, _ in m.traced)
        print(f"  traced pass {traced:.4f} s, layers cover {covered:.4f} s, "
              f"untraced pass {statistics.median(walls):.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny job per workload; check metric names and units")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "classpoly" / "__init__.py").is_file():
        sys.stderr.write(f"no classpoly source tree under {ROOT}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import classpoly
    from classpoly.modfunc import DEFAULT_PRECISION

    if Path(classpoly.__file__).resolve().parent != SRC / "classpoly":
        sys.stderr.write(f"imported classpoly from {classpoly.__file__}, not {SRC}\n")
        return 2

    if args.smoke:
        names, seconds, trace, samples = list(WORKLOADS), 0.0, True, 3
    elif args.workload in WORKLOADS:
        names, seconds, trace = [args.workload], args.seconds, bool(args.trace)
        samples = SETUP_SAMPLES
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} (or use --smoke)")
    print("env " + json.dumps(environment()))
    rng = random.Random(args.seed)
    problems = []
    for name in names:
        workload = WORKLOADS[name]
        jobs = workload.smoke if args.smoke else workload.jobs
        m, setup = measure(jobs, workload.smoke, seconds, trace, rng, samples, started)
        e2e = m.end_to_end(setup, DEFAULT_PRECISION.max_escalations)
        layers = m.per_layer(setup) if trace else None
        check_names(e2e, spec["end_to_end"], "end-to-end")
        if layers is not None:
            check_names(layers, spec["per_layer"], "per-layer")
        report(name, m, e2e, layers)
        problems += m.problems
    if args.smoke:
        print(json.dumps({"smoke": "failed" if problems else "ok"}))
        return 1 if problems else 0
    outcomes = [o for p in m.untraced for _, o in p]
    metrics = layers if trace else e2e
    print(json.dumps({
        "correct": not m.problems,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
