"""Time two checkouts against each other in one process, request by request.

Each tree's ``src/cfrac`` is loaded under its own module name (``cfrac_a``
and ``cfrac_b``; the package imports itself only by relative imports), and
every request of ``bench.workloads.build_cycle(workload, seed)`` goes through
both ``cli.run``s.  A pair is one call on each side, back to back, and the
side that goes first flips from one pair of a class to the next, so a drift
in host speed falls on both sides alike.  One untimed call per side and
request comes first.  Stdout and stderr go to memory; a request whose exit
code or output differs between the sides is flagged with ``!``.  A
certificates request is timed as ``bench.harness`` runs it: ``certify`` with
``--out`` a file, then ``verify`` of that file, after the tampering of a
tampered class, which is not timed.

Per class the tool prints the number of pairs, the median wall time of each
side, their ratio, the quartiles of the paired difference B - A, and the
share of pairs that B won (took less time).  The ``cycle`` row does the
same for the sum of each round's calls.  Differences of a few percent need
many pairs: raise ``--rounds``, or pick classes with ``--classes``.

Usage: ``python tools/ab.py A B [--workload W] [--seed N] [--rounds R]
[--classes NAME ...]``, where A and B are checkouts (A is the baseline),
the workload defaults to convergents, the seed to 1 and the rounds to 5, and
``--classes`` keeps the classes whose names (``e@2000 text``,
``tanh(7/3)@300 json``, as ``bench.workloads`` names them) contain one of the
strings given.  ``bench`` is imported from the checkout the tool sits in.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from bench.workloads import WORKLOADS, build_cycle, tamper_certificate  # noqa: E402


def load_cli(tree: Path, name: str):
    """``cfrac.cli`` of the checkout ``tree``, imported as the package ``name``."""
    package = tree / "src" / "cfrac"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(run, argv) -> tuple[float, tuple]:
    """Seconds ``run(argv)`` took, and what it returned and printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = run(list(argv))
        seconds = perf_counter() - start
    return seconds, (code, out.getvalue(), err.getvalue())


def timed_request(run, request, path: Path) -> tuple[float, tuple]:
    """Seconds ``request`` took through ``run``, and what it returned, printed and wrote.

    A certificates request writes its certificate to ``path``, and its time
    is that of ``certify`` and ``verify`` together.
    """
    if request.workload != "certificates":
        return timed(run, request.argv)
    certify, made = timed(run, (*request.argv, "--out", str(path)))
    if made[0] != 0:
        return certify, made
    text = path.read_text(encoding="utf-8")
    if request.tamper:
        altered = tamper_certificate(json.loads(text), request.tamper)
        path.write_text(json.dumps(altered, indent=2) + "\n", encoding="utf-8")
    verify, checked = timed(run, ("verify", str(path)))
    return certify + verify, (made, text, checked)


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def row(label: str, pairs: list[tuple[float, float]], flag: str = "") -> str:
    a, b = (statistics.median(side) * 1e3 for side in zip(*pairs))
    q1, q2, q3 = quartiles([(tb - ta) * 1e3 for ta, tb in pairs])
    won = sum(tb < ta for ta, tb in pairs) / len(pairs)
    return (f"{label + flag:<26} {len(pairs):>5} {a:>9.3f} {b:>9.3f} {b / a:>6.3f}"
            f" {q1:>8.3f} {q2:>8.3f} {q3:>8.3f} {won:>6.2f}")


def compare(runs, cycle, rounds: int, path: Path):
    """The classes whose outputs differ, each class's timed pairs, and each round's totals."""
    differs = set()
    for request in cycle:
        outputs = [timed_request(run, request, path)[1] for run in runs]
        if outputs[0] != outputs[1]:
            differs.add(request.cls)
    pairs: dict[str, list[tuple[float, float]]] = {r.cls: [] for r in cycle}
    totals = []
    for _ in range(rounds):
        total = [0.0, 0.0]
        for request in cycle:
            pair = pairs[request.cls]
            order = (0, 1) if len(pair) % 2 == 0 else (1, 0)
            seconds = [0.0, 0.0]
            for side in order:
                seconds[side] = timed_request(runs[side], request, path)[0]
            pair.append((seconds[0], seconds[1]))
            total = [t + s for t, s in zip(total, seconds)]
        totals.append(tuple(total))
    return differs, pairs, totals


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline checkout")
    parser.add_argument("b", type=Path, help="checkout compared with it")
    parser.add_argument("--workload", choices=WORKLOADS, default="convergents")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--classes", nargs="+", metavar="NAME")
    args = parser.parse_args(argv)
    runs = [load_cli(args.a, "cfrac_a").run, load_cli(args.b, "cfrac_b").run]
    cycle = [r for r in build_cycle(args.workload, args.seed)
             if not args.classes or any(name in r.cls for name in args.classes)]
    if not cycle:
        parser.error("no request of the cycle is in the classes asked for")

    with tempfile.TemporaryDirectory() as workdir:
        differs, pairs, totals = compare(runs, cycle, args.rounds, Path(workdir) / "certificate.json")

    print(f"{'class':<26} {'pairs':>5} {'A ms':>9} {'B ms':>9} {'B/A':>6}"
          f" {'B-A q1':>8} {'median':>8} {'q3':>8} {'B won':>6}")
    for cls, timings in pairs.items():
        print(row(cls, timings, "!" if cls in differs else ""))
    print(row("cycle", totals))


if __name__ == "__main__":
    main()
