"""Benchmark of the cfrac CLI: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload digits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; cfrac is imported from ``src/`` there, so
nothing has to be installed.  The workloads are described in
``bench/workloads.py`` and ``bench/README.md``.

``--trace 0`` runs whole cycles of the seeded mix until ``--seconds`` of
request time and at least 100 requests are reached, and reports the
end-to-end metrics.  ``--trace 1`` runs half as long untraced, then the same
requests again with every cfrac layer traced, and reports the per-layer
metrics of the requests that returned, and the tracing overhead: traced time
over untraced time of the requests that returned in both passes.

Diagnostics (per-class latencies, failures, absent trace points) go to
stderr; the last line of stdout is the result object.  The exit code is 0
when the run completed, whatever the outcome of individual requests, and
non-zero when the program under test cannot be imported.
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
from collections import Counter, defaultdict
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import harness, tracing  # noqa: E402
from bench.workloads import DEADLINE_S, WORKLOADS, build_cycle  # noqa: E402

#: Fewest requests in a measured pass, so that ten samples lie beyond p90.
MIN_REQUESTS = 100

#: One fresh process is timed for ``setup_s`` per this much request time,
#: between requests, and the median is reported.  Spreading the probes over
#: the run makes them sample the same mix of fast and slow spells of a shared
#: host as the requests do; probes taken back to back sample a second or two.
SETUP_PROBE_EVERY_S = 1.0

OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import ``cfrac.cli`` from this checkout's ``src/``."""
    package = ROOT / "src" / "cfrac"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no cfrac sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import cfrac.cli

    if Path(cfrac.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported cfrac from {cfrac.__file__}, not {package}")
    return cfrac.cli


#: Smallest request of each workload, sent once before timing.
WARM_UP = {
    "digits": (("digits", "--expr", "exp", "--x", "1", "--y", "1", "--digits", "20"),),
    "convergents": (("convergents", "--expansion", "e", "--depth", "5"),),
    "certificates": (("certify", "--x", "3", "--y", "2", "--format", "json", "--out", "{out}"),
                     ("verify", "{out}")),
}


def set_up(workload: str, seed: int, workdir: Path):
    """Import cfrac, build the seeded cycle and warm up: the work ``setup_s`` times."""
    cli = load_cli()
    cycle = build_cycle(workload, seed)
    runner = harness.Runner(cli, DEADLINE_S, workdir)
    out = str(runner.certificate_path)
    for argv in WARM_UP[workload]:
        runner.call(tuple(a.replace("{out}", out) for a in argv), DEADLINE_S)
    return runner, cycle


def time_set_up(workload: str, seed: int, workdir: Path) -> float:
    start = perf_counter()
    set_up(workload, seed, workdir)
    return perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(ceil(q * len(sorted_values)) - 1, 0)]


def returned_per_s(cycle: list[harness.Result]) -> float:
    """Requests that returned (answered or refused) per second of their time.

    Requests abandoned at the deadline are left out: each is charged the
    same fixed time, which would damp the metric's response to speed.
    """
    returned = [r.seconds for r in cycle if r.status != harness.DEADLINE]
    return len(returned) / sum(returned)


def end_to_end(cycles: list[list[harness.Result]]) -> dict[str, float]:
    results = [r for cycle in cycles for r in cycle]
    latencies = sorted(r.seconds * 1000 for r in results)
    ok = sum(r.status == harness.OK for r in results)
    return {
        # The median over cycles, so that a burst of contention from other
        # processes on the host moves it less than it moves the mean.
        "requests_per_s": statistics.median(returned_per_s(c) for c in cycles),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "ok_ratio": ok / len(results),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


PER_LAYER_UNITS = {
    "core.term.calls": "calls/req",
    "core.term.self_s": "s/req",
    "core.step.calls": "calls/req",
    "core.step.self_s": "s/req",
    "core.value.self_s": "s/req",
    "core.evaluate.calls": "calls/req",
    "core.evaluate.self_s": "s/req",
    "core.depth_sum": "terms/req",
    "core.operand_bits_max": "bits",
    "core.self_s": "s/req",
    "core.errors": "errors/req",
    "expansions.calls": "calls/req",
    "expansions.exp_rational.self_s": "s/req",
    "expansions.tanh_rational.self_s": "s/req",
    "expansions.self_s": "s/req",
    "expansions.errors": "errors/req",
    "irrationality.legendre_tail_index.self_s": "s/req",
    "irrationality.certify_irrational.calls": "calls/req",
    "irrationality.certify_irrational.self_s": "s/req",
    "irrationality.verify_certificate.self_s": "s/req",
    "irrationality.terms_per_certificate": "terms/cert",
    "irrationality.self_s": "s/req",
    "irrationality.errors": "errors/req",
    "cli.run.self_s": "s/req",
    "cli.certified_digits.self_s": "s/req",
    "cli.decimal_preview.self_s": "s/req",
    "cli.certificate_io.self_s": "s/req",
    "cli.refine_rounds": "rounds/call",
    "cli.useful_round_ratio": "ratio",
    "cli.self_s": "s/req",
    "cli.errors": "errors/req",
    "rationals.is_integer.calls": "calls/req",
    "rationals.errors": "errors/req",
    "trace.overhead_ratio": "ratio",
    "trace.absent_points": "count",
}


def per_layer(tracer: tracing.Tracer, overhead: float, absent: list[str]) -> dict[str, float]:
    """Per-layer figures of the traced requests that returned."""
    kept = tracer.kept

    def per_request(value):
        return value / tracer.requests_kept

    def ratio(num, den):
        return num / den if den else 0.0

    calls, self_s, counters = kept.calls, kept.self_s, kept.counters
    metrics = {
        "core.depth_sum": per_request(counters["core.depth_sum"]),
        "core.operand_bits_max": counters["core.operand_bits_max"],
        "expansions.calls": per_request(sum(v for k, v in calls.items()
                                            if k.startswith("expansions."))),
        "irrationality.terms_per_certificate": ratio(counters["irrationality.terms"],
                                                     kept.entries["irrationality"]),
        "cli.refine_rounds": ratio(counters["cli.rounds"], calls["cli.certified_digits"]),
        "cli.useful_round_ratio": ratio(counters["cli.useful_rounds"], counters["cli.rounds"]),
        "trace.overhead_ratio": overhead,
        "trace.absent_points": len(absent),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = per_request(kept.layer_self_s(layer))
        metrics[f"{layer}.errors"] = per_request(kept.errors[layer])
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition(".")
        if name in metrics:
            continue
        if kind == "calls":
            metrics[name] = per_request(calls[span])
        elif kind == "self_s":
            metrics[name] = per_request(self_s[span])
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def report_classes(results: list[harness.Result], label: str) -> None:
    """Per-class latency and outcome table on stderr."""
    by_class: dict[str, list[harness.Result]] = defaultdict(list)
    for r in results:
        by_class[r.request.cls].append(r)
    print(f"[{label}] {len(results)} requests", file=sys.stderr)
    for cls, rs in sorted(by_class.items(), key=lambda kv: statistics.median(r.seconds for r in kv[1])):
        counts = Counter(r.status for r in rs)
        known = rs[0].request.known_failure
        failed = len(rs) - counts[harness.OK]
        note = ""
        if failed:
            note = (f"  known failure, ROADMAP item {known}" if known
                    else "  UNEXPECTED FAILURE: " + next(r.detail for r in rs if r.status != harness.OK))
        print(f"  {cls:<28} n={len(rs):<4} median {statistics.median(r.seconds for r in rs) * 1000:9.1f} ms"
              f"  {dict(counts)}{note}", file=sys.stderr)


def outcome_fields(results: list[harness.Result]) -> dict:
    failed = sum(r.status != harness.OK for r in results)
    return {
        "correct": not any(r.status == harness.WRONG for r in results),
        "attempted": len(results),
        "failed": failed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    runner, cycle = set_up(workload, seed, workdir)
    if not trace:
        setup_times: list[float] = []

        def between(busy):
            if busy >= len(setup_times) * SETUP_PROBE_EVERY_S:
                setup_times.append(probe_setup(workload, seed))

        cycles = harness.run_cycles(runner, cycle, seconds, MIN_REQUESTS, between)
        results = [r for c in cycles for r in c]
        metrics = end_to_end(cycles)
        report_classes(results, f"{workload} seed {seed}")
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS
        fields = outcome_fields(results)
    else:
        results = [r for c in harness.run_cycles(runner, cycle, seconds / 2, MIN_REQUESTS)
                   for r in c]
        tracer = tracing.Tracer()
        patch = tracing.install(tracer)
        try:
            traced = []
            for i, untraced in enumerate(results):
                tracer.request = i
                result = runner.execute(untraced.request)
                tracer.finish(keep=result.status != harness.DEADLINE)
                traced.append(result)
        finally:
            patch.restore()
        if patch.absent:
            print("trace: absent (removed or renamed), not measured: " + ", ".join(patch.absent),
                  file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json", patch.absent)
        report_classes(results, f"{workload} seed {seed} untraced")
        report_classes(traced, f"{workload} seed {seed} traced")
        both = [(t.seconds, u.seconds) for t, u in zip(traced, results)
                if harness.DEADLINE not in (t.status, u.status)]
        overhead = sum(t for t, _ in both) / sum(u for _, u in both)
        metrics = per_layer(tracer, overhead, patch.absent)
        units = PER_LAYER_UNITS
        fields = outcome_fields(results + traced)
    fields["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(time_set_up(args.workload, args.seed, workdir))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
