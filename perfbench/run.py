#!/usr/bin/env python3
"""Benchmark of the pottsmotive checkout this file sits in.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run issues passes over the workload's operations, one after another from
one thread (a closed loop with one client), until --seconds have elapsed.
Every pass runs in a fresh worker process, so no cache carries over from one
pass to the next and each pass also measures set-up (import plus input
generation).  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it carries
the details (backend, machine, digest, sample counts).  Spans and the full
result are written to .perfbench/ in the checkout.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PROCESS_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("oracle", "symbolic", "verify", "closed_forms")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot run in this checkout or environment."""


# -- environment ------------------------------------------------------------------


def use_checkout_src() -> None:
    """Make `import pottsmotive` load this checkout's src/ and nothing else."""
    if not (SRC / "pottsmotive" / "__init__.py").is_file():
        raise BenchError(f"no pottsmotive package under {SRC}")
    if os.environ.get("POTTS_BUDGET") is not None:
        raise BenchError("POTTS_BUDGET is set; every figure must use the default budget")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pottsmotive

    loaded = Path(pottsmotive.__file__).resolve()
    if loaded.parent != (SRC / "pottsmotive").resolve():
        raise BenchError(f"pottsmotive would be imported from {loaded}, not from {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import pottsmotive

    return {
        "backend": pottsmotive.kernel_backend(),
        "POTTS_PURE": os.environ.get("POTTS_PURE"),
        "python": platform.python_version(),
        "nproc": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "seed": seed,
    }


# -- one pass -----------------------------------------------------------------------


class Recorder:
    """Times the operations of one pass and keeps their outcomes."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.outcomes: list[tuple[str, bool, str]] = []

    def _call(self, fn) -> tuple[bool, str]:
        from workloads import CheckFailed

        try:
            return True, fn()
        except CheckFailed as exc:
            return False, f"mismatch: {exc}"
        except Exception as exc:  # an operation that raises counts as failed
            return False, f"error: {type(exc).__name__}: {exc}"

    def run(self, name: str, fn) -> None:
        """One operation: timed, checked, and part of the digest."""
        if self.tracer is not None:
            self.tracer.begin_op(name)
        start = perf_counter()
        ok, output = self._call(fn)
        self.latencies.append(perf_counter() - start)
        if self.tracer is not None:
            self.tracer.end_op()
        self.outcomes.append((name, ok, output))

    def run_outside(self, name: str, fn) -> None:
        """A check around a group of operations (such as one CLI call):
        counted and digested like an operation, but not a latency sample."""
        ok, output = self._call(fn)
        self.outcomes.append((name, ok, output))

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, ok, output in self.outcomes:
            h.update(f"{name}\t{ok}\t{output}\n".encode())
        return h.hexdigest()


def run_pass(workload: str, seed: int, trace: bool, tiny: bool = False) -> dict:
    """Build the workload, then run one pass over it; returns the worker's
    report.  Set-up time counts from the start of this process."""
    import resource

    import workloads
    from tracing import Tracer

    steps = workloads.build(workload, seed, tiny)
    setup_s = perf_counter() - PROCESS_START
    tracer = Tracer() if trace else None
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for step in steps:
            step(rec=rec)
        wall_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": rec.latencies,
        "attempted": len(rec.outcomes),
        "failures": [[n, out] for n, ok, out in rec.outcomes if not ok],
        "digest": rec.digest(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["cross_kernel"] = tracer.cross_kernel()
        report["spans"] = tracer.spans
    return report


def worker_main(args) -> int:
    use_checkout_src()
    report = run_pass(args.workload, args.seed, bool(args.trace))
    report["environment"] = environment(args.seed)
    print(json.dumps(report))
    return 0


# -- a run: several passes in worker processes ---------------------------------------


def spawn_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--worker",
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(1.0, deadline - perf_counter())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def golden_digest(workload: str, seed: int):
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Issue passes until the time is used; returns (result, details, the
    untraced passes' own figures)."""
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        want_traced = trace and len(traced) < len(plain)
        (traced if want_traced else plain).append(
            spawn_pass(workload, seed, want_traced, deadline)
        )
        passes = plain + traced
        elapsed = perf_counter() - started
        per_pass = elapsed / len(passes)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and elapsed + per_pass > seconds:
            break
        if elapsed + per_pass > RUN_LIMIT_S - 10:
            break

    passes = plain + traced
    digests = {p["digest"] for p in passes}
    golden = golden_digest(workload, seed)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    details = {
        "workload": workload,
        "environment": passes[0]["environment"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "digest": plain[0]["digest"],
        "digests_agree": len(digests) == 1,
        "golden_digest": (
            "absent" if golden is None else "match" if digests == {golden} else "MISMATCH"
        ),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
    }
    correct = not failures and len(digests) == 1 and details["golden_digest"] != "MISMATCH"
    if trace:
        metrics = per_layer_metrics(plain, traced, details)
        correct = (
            correct
            and details["counts_repeat"]
            and details["cross_kernel"]["mismatches"] == 0
        )
        _write_spans(workload, seed, traced)
    else:
        metrics = end_to_end_metrics(plain, details)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = [{k: p[k] for k in ("setup_s", "wall_s", "rss_mb", "latencies")} for p in plain]
    return result, details, raw


def end_to_end_metrics(plain: list[dict], details: dict) -> dict:
    latencies = [x for p in plain for x in p["latencies"]]
    # fixed by the workload's size, so every run of it reports the same one
    tail_p = tail_percentile(len(plain[0]["latencies"]) * MIN_PASSES)
    details["latency_samples"] = len(latencies)
    details["op_tail_percentile"] = tail_p
    tail = statistics.quantiles(latencies, n=1000, method="inclusive")[round(10 * tail_p) - 1]
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }


def per_layer_metrics(plain: list[dict], traced: list[dict], details: dict) -> dict:
    """Times are medians over the traced passes; counts come from the first
    traced pass and must repeat exactly in the others."""
    layers = [p["layers"] for p in traced]
    timed = {k for k in layers[0] if k.endswith("self_s") or k == "kernel.points_per_s"}
    details["counts_repeat"] = all(
        first == other[k] for k, first in layers[0].items() if k not in timed for other in layers
    )
    cross = [p["cross_kernel"] for p in traced]
    details["cross_kernel"] = {
        "status": cross[0]["status"],
        "checked": sum(c["checked"] for c in cross),
        "mismatches": sum(c["mismatches"] for c in cross),
    }
    metrics = {}
    for key, first in layers[0].items():
        value = statistics.median(layer[key] for layer in layers) if key in timed else first
        metrics[key] = (value, _layer_unit(key))
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def _layer_unit(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith("per_s"):
        return "1/s"
    return "count"


def _write_spans(workload: str, seed: int, traced: list[dict]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for i, p in enumerate(traced):
            for name, start, end, parent, op in p["spans"]:
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")


# -- smoke mode --------------------------------------------------------------------

def smoke() -> list[str]:
    """Run every workload once at tiny sizes, traced and untraced, in this
    process; returns the list of problems found (empty when all is well)."""
    import pottsmotive.grothendieck as gr
    from tracing import LAYERS

    problems = []
    for workload in WORKLOADS:
        plain = run_pass(workload, 1, trace=False, tiny=True)
        traced = run_pass(workload, 1, trace=True, tiny=True)
        if plain["failures"] or traced["failures"]:
            problems.append(f"{workload}: failures {plain['failures'] or traced['failures']}")
        if plain["digest"] != traced["digest"]:
            problems.append(f"{workload}: traced and untraced digests differ")
        expected = {f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s")}
        missing = expected - set(traced["layers"])
        if missing:
            problems.append(f"{workload}: layer metrics missing {sorted(missing)}")

    # A perturbed closed form must be caught by the checks.
    original = gr.polygon_class
    gr.polygon_class = lambda m: original(m) + 1
    try:
        for workload in ("oracle", "closed_forms"):
            report = run_pass(workload, 1, trace=False, tiny=True)
            if not report["failures"]:
                problems.append(f"{workload}: a wrong closed form went unnoticed")
    finally:
        gr.polygon_class = original
    return problems


# -- command line ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny run of every workload with self-checks"
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.worker:
            return worker_main(args)
        use_checkout_src()
        if args.smoke:
            problems = smoke()
            for line in problems:
                print(line, file=sys.stderr)
            print("smoke: " + ("FAIL" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result, details, raw = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    full = {"result": result, "details": details, "passes": raw}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(full))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
