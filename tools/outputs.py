"""Print one digest line per distinct CLI request, so that "outputs unchanged" is a diff.

Every distinct request of the bench workloads (``bench.workloads.build_cycle``
for each seed) is sent through ``cfrac.cli.run`` in-process, and its exit
code, stdout and stderr are hashed.  A certificates request runs
``certify --out FILE``, tampers with the file as the bench harness does
(``bench.workloads.tamper_certificate``), then runs ``verify FILE``; its digest
also covers the file as written.  The ``cli`` section covers ``--help`` of the
program and of each subcommand and three usage errors, and the ``demos``
section the output of each script in ``demos/``.

Usage: ``python tools/outputs.py [SECTION ...] [--seeds N ...]``, where a
section is a workload name, ``cli`` or ``demos`` (default: all of them) and the
seeds default to 1 2 3.  Each line reads ``<exit codes>  <digest>  <request>``.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import WORKLOADS, build_cycle, tamper_certificate  # noqa: E402
from cfrac import cli  # noqa: E402

SECTIONS = (*WORKLOADS, "cli", "demos")
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
            else:
                lines = _workload_lines(rec, section, args.seeds)
            for line in lines:
                print(f"{section}  {line}")


if __name__ == "__main__":
    main()
