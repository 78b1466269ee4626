"""Print one digest line per distinct CLI request, so that "outputs unchanged" is a diff.

Every distinct request of the bench workloads (``bench.workloads.build_cycle``
for each seed) is sent through ``cfrac.cli.run`` in-process, and its exit
code, stdout and stderr are hashed.  A certificates request runs
``certify --out FILE``, tampers with the file as the bench harness does
(``bench.workloads.tamper_certificate``), then runs ``verify FILE``; its digest
also covers the file as written.  The ``cli`` section covers ``--help`` of the
program and of each subcommand and four usage errors, and the ``demos``
section the output of each script in ``demos/``.  The ``library`` section calls
the evaluators directly at bench sizes: for each distinct ``digits`` request
``exp_rational`` or ``tanh_rational`` at tolerance 10^-(N+2) for N digits, the
same with ``max_depth=5``, and ``certified_enclosures`` at 10^-(N+2), 10^-(N+6)
and 10^-(N+10); then ``evaluate`` on e at 10^-k and on a list that runs out,
and the edge arms of the engine: ``convergents`` of e and of tanh(x/y), with
x/y reduced and not, and of a list at its length and one past it,
``evaluate`` on an empty list and on a list with a negative term, and
``exp_rational`` capped at 3000 terms for x = +-10^4 at 10^-10 (no state
with a bound yet) and at 304 terms for x = +-400 at 10^-300 (one past the
first state with one), and last ``convergents`` of tanh(1/3), whose
partial numerators are all 1, and of a list that mixes terms equal to 1
with others in both a and b.
The ``overwrite`` section certifies 1000001/3 with ``--out FILE`` and then
5/1 to the same file without removing it, so the second certificate is
written over a longer one; each line covers the file as written and the
output of ``verify FILE``.
Each returned integer is hashed in hex, so no int-str limit applies; an
exception is hashed by its type, its message and the ``best`` it carries.

Usage: ``python tools/outputs.py [SECTION ...] [--seeds N ...]``, where a
section is a workload name, ``cli``, ``demos``, ``library`` or ``overwrite``
(default: all of them) and the seeds default to 1 2 3.  Each line reads
``<exit codes>  <digest>  <request>``; in ``library`` the codes are ``ok`` or
the type of the exception, one per call.
The tool imports ``cfrac`` from the ``src/`` and ``bench`` from the checkout it
sits in, reads nothing else there and writes only to a temporary directory.
To compare two commits, copy it into the other checkout, run it in both and
diff the outputs.  Help text is wrapped at 80 columns whatever the terminal.
``tools/outputs.txt`` holds the output of the default run, and
``tests/test_outputs_tool.py`` fails when the tool prints anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import WORKLOADS, build_cycle, tamper_certificate  # noqa: E402
from cfrac import cli  # noqa: E402
from cfrac.core import ContinuedFraction, ExplicitListRule, Term, convergents, evaluate  # noqa: E402
from cfrac.expansions import (  # noqa: E402
    certified_enclosures,
    e_simple_cf,
    exp_rational,
    tanh_integer_cf,
    tanh_rational,
)

SECTIONS = (*WORKLOADS, "cli", "demos", "library", "overwrite")
SUBCOMMANDS = ("convergents", "digits", "certify", "verify")


class _Recorder:
    """Runs commands and hashes what they print, with the temporary directory masked."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def call(self, run, *args) -> tuple[object, list[str]]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(*args)
            except SystemExit as exc:
                code = exc.code
        texts = [out.getvalue(), err.getvalue()]
        return code, [text.replace(str(self.tmp), "<tmp>") for text in texts]

    def cli(self, *argv: str) -> tuple[int, list[str]]:
        return self.call(cli.run, list(argv))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _line(codes, parts, label: str) -> str:
    return f"{'/'.join(map(str, codes))}  {_digest([*codes, *parts])}  {label}"


def _workload_lines(rec: _Recorder, workload: str, seeds) -> list[str]:
    lines, seen = [], set()
    for seed in seeds:
        for request in build_cycle(workload, seed):
            key = (request.argv, request.tamper)
            if key in seen:
                continue
            seen.add(key)
            label = " ".join(request.argv)
            if workload != "certificates":
                code, texts = rec.cli(*request.argv)
                lines.append(_line([code], texts, label))
                continue
            path = rec.tmp / "certificate.json"
            path.unlink(missing_ok=True)
            code, texts = rec.cli(*request.argv, "--out", str(path))
            written = path.read_text(encoding="utf-8") if path.exists() else ""
            if request.tamper and written:
                tampered = tamper_certificate(json.loads(written), request.tamper)
                path.write_text(json.dumps(tampered, indent=2) + "\n", encoding="utf-8")
                label += f" (tampered {request.tamper})"
            verify_code, verify_texts = rec.cli("verify", str(path))
            lines.append(_line([code, verify_code], [*texts, written, *verify_texts], label))
    return lines


def _cli_lines(rec: _Recorder) -> list[str]:
    argvs = [
        ("--help",),
        *((name, "--help") for name in SUBCOMMANDS),
        ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "5", "--bogus"),
        ("convergents", "--expansion", "tanh", "--depth", "3"),
        ("convergents", "--expansion", "e", "--x", "5", "--depth", "3"),
        ("verify", str(rec.tmp / "missing.json")),
    ]
    lines = []
    for argv in argvs:
        code, texts = rec.cli(*argv)
        lines.append(_line([code], texts, " ".join(argv).replace(str(rec.tmp), "<tmp>")))
    return lines


def _demo_lines(rec: _Recorder) -> list[str]:
    lines = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        code, texts = rec.call(runpy.run_path, str(demo), None, "__main__")
        code = 0 if isinstance(code, dict) else code  # run_path returns the globals
        lines.append(_line([code], texts, f"demos/{demo.name}"))
    return lines


def _overwrite_lines(rec: _Recorder) -> list[str]:
    path, lines = rec.tmp / "overwrite.json", []
    for x, y in (("1000001", "3"), ("5", "1")):
        argv = ("certify", "--x", x, "--y", y, "--format", "json", "--out", str(path))
        code, texts = rec.cli(*argv)
        written = path.read_text(encoding="utf-8")
        verify_code, verify_texts = rec.cli("verify", str(path))
        label = " ".join(argv).replace(str(rec.tmp), "<tmp>")
        lines.append(_line([code, verify_code], [*texts, written, *verify_texts], label))
    return lines


def _hex(value) -> str:
    """``value`` with every integer in hex: the int-str limit applies only to decimal."""
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_hex, value)) + ")"
    if value is None:
        return "None"
    return _hex((value.value, value.error_bound, value.depth))  # an ApproximationResult


def _outcome(fn, *args) -> tuple[str, list[str]]:
    """("ok", [fields]) for what ``fn`` returned, or (type, [message, best]) for what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # any exception is an outcome to record, not a tool failure
        return type(exc).__name__, [str(exc), _hex(getattr(exc, "best", None))]
    return "ok", [_hex(result)]


def _library_lines(seeds) -> list[str]:
    lines, seen = [], set()
    for seed in seeds:
        for request in build_cycle("digits", seed):
            options = dict(zip(request.argv[1::2], request.argv[2::2]))
            expr, x, y, n = (options["--expr"], int(options["--x"]), int(options["--y"]),
                             int(options["--digits"]))
            if (expr, x, y, n) in seen:
                continue
            seen.add((expr, x, y, n))
            evaluator = exp_rational if expr == "exp" else tanh_rational
            tolerances = [Fraction(1, 10 ** (n + extra)) for extra in (2, 6, 10)]
            outcomes = [
                _outcome(evaluator, x, y, tolerances[0]),
                _outcome(evaluator, x, y, tolerances[0], 5),
                _outcome(lambda: list(certified_enclosures(expr, x, y, tolerances))),
            ]
            codes, fields = zip(*outcomes)
            label = f"{expr} x={x} y={y} digits={n}"
            lines.append(_line(codes, [f for call in fields for f in call], label))

    def listed(*terms):
        return ContinuedFraction(Fraction(1), ExplicitListRule(Term(a, 1) for a in terms))

    finite, tiny = listed(2, 3, 4), Fraction(1, 10**100)
    cases = [(f"evaluate e 10^-{k}", evaluate, e_simple_cf(), Fraction(1, 10**k))
             for k in (1, 10, 100, 1000)]
    cases.append(("evaluate [1; 2, 3, 4] 10^-100", evaluate, finite, tiny))
    cases += [(f"convergents e {n}", convergents, e_simple_cf(), n) for n in (1, 300, 2000)]
    cases += [(f"convergents tanh({x}/{y}) 300", convergents, tanh_integer_cf(x, y), 300)
              for x, y in ((7, 3), (12, 18))]
    cases += [(f"convergents [1; 2, 3, 4] {n}", convergents, finite, n) for n in (3, 4)]
    empty = ContinuedFraction(Fraction(5, 3), ExplicitListRule(()))
    cases.append(("evaluate [5/3] 10^-100", evaluate, empty, tiny))
    cases.append(("evaluate [1; 2, -3, 4] 10^-100", evaluate, listed(2, -3, 4), tiny))
    cases += [(f"exp_rational {x}/1 10^-{k} cap {cap}", exp_rational, x, 1, Fraction(1, 10**k), cap)
              for x, k, cap in ((10**4, 10, 3000), (-10**4, 10, 3000), (400, 300, 304), (-400, 300, 304))]
    # Each arm of a term equal to 1: b = 1 with a != 1, and a list with unit and non-unit a and b
    cases.append(("convergents tanh(1/3) 300", convergents, tanh_integer_cf(1, 3), 300))
    units = [(1, 1), (2, 1), (1, 3), (4, 2), (1, 1), (1, 5), (3, 1), (1, 1), (2, 2), (1, 1)] * 6
    mixed = ContinuedFraction(Fraction(3, 2), ExplicitListRule(Term(a, b) for a, b in units))
    cases.append(("convergents [3/2; unit and non-unit a and b] 60", convergents, mixed, 60))
    for label, fn, *args in cases:
        code, fields = _outcome(fn, *args)
        lines.append(_line([code], fields, label))
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*", metavar="SECTION")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    unknown = set(args.sections) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections {sorted(unknown)}; choose from {', '.join(SECTIONS)}")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        rec = _Recorder(Path(tmp))
        for section in args.sections or SECTIONS:
            if section == "cli":
                lines = _cli_lines(rec)
            elif section == "demos":
                lines = _demo_lines(rec)
            elif section == "library":
                lines = _library_lines(args.seeds)
            elif section == "overwrite":
                lines = _overwrite_lines(rec)
            else:
                lines = _workload_lines(rec, section, args.seeds)
            for line in lines:
                print(f"{section}  {line}")


if __name__ == "__main__":
    main()
