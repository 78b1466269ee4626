"""Running requests through ``cfrac.cli.run`` under a deadline, and checking them.

Every request goes through the stable public entry point ``cfrac.cli.run``
in this process, with stdout and stderr captured.  Only the calls into the
CLI are timed; checking, tampering and bookkeeping happen between them.
"""

from __future__ import annotations

import hashlib
import io
import json
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from . import checks
from .workloads import Request, tamper_certificate

#: Request outcomes.  Only "ok" is a success; "wrong" also makes the run
#: incorrect (an output or verdict that the checks refute).
OK, WRONG, EXIT, DEADLINE = "ok", "wrong", "exit", "deadline"


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM when a request overruns its deadline.

    A BaseException, so that ``cfrac.cli.run``'s handlers (which map
    ``OSError``, and with it ``TimeoutError``, to exit 1) cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in this (main) thread after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Outcome:
    """One call of ``cfrac.cli.run``: exit code (None if abandoned), output, time."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float
    timed_out: bool = False


@dataclass(frozen=True)
class Result:
    request: Request
    seconds: float
    status: str
    detail: str = ""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Runner:
    """Sends requests to one imported ``cfrac.cli`` module and checks the answers.

    An output identical to one already checked for the same command line is
    accepted by digest; anything else is checked in full.
    """

    def __init__(self, cli, deadline_s: float, workdir: Path):
        self.cli = cli
        self.deadline_s = deadline_s
        self.certificate_path = workdir / "certificate.json"
        self.verified: dict[tuple[str, ...], str] = {}

    def call(self, argv, budget: float) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), deadline(budget):
                code = self.cli.run(list(argv))
        except DeadlineExceeded:
            return Outcome(None, "", "", budget, timed_out=True)
        except Exception as exc:  # a crash escaping cli.run fails this request only
            elapsed = perf_counter() - start
            return Outcome(None, "", f"{type(exc).__name__}: {exc}", elapsed)
        elapsed = perf_counter() - start
        return Outcome(code, out.getvalue(), err.getvalue(), elapsed)

    def execute(self, request: Request) -> Result:
        if request.workload == "certificates":
            return self._certificate(request)
        outcome = self.call(request.argv, self.deadline_s)
        status, detail = self._classify(request.expect_exit, outcome)
        if status == OK and request.expect_exit == 0:
            status, detail = self._check_output(request, outcome.stdout)
        return Result(request, outcome.seconds, status, detail)

    def _classify(self, expect_exit: int, outcome: Outcome) -> tuple[str, str]:
        if outcome.timed_out:
            return DEADLINE, f"no answer within {self.deadline_s} s"
        if outcome.code is None:
            return EXIT, outcome.stderr
        if outcome.code != expect_exit:
            # Answering what should have been refused is a wrong output.
            status = WRONG if outcome.code == 0 else EXIT
            return status, f"exit {outcome.code}, expected {expect_exit}: {outcome.stderr[:120]}"
        if outcome.code != 0 and (outcome.stdout or not outcome.stderr.startswith("error:")):
            return WRONG, "refusal without an error message on stderr only"
        return OK, ""

    def _check_output(self, request: Request, stdout: str) -> tuple[str, str]:
        digest = _digest(stdout)
        if self.verified.get(request.argv) == digest:
            return OK, ""
        if request.workload == "digits":
            problem = checks.check_digits(request.argv, stdout)
        else:
            problem = checks.check_convergents(request.argv, stdout)
        if problem:
            return WRONG, problem
        self.verified[request.argv] = digest
        return OK, ""

    def _certificate(self, request: Request) -> Result:
        path = self.certificate_path
        certify = self.call(request.argv + ("--out", str(path)), self.deadline_s)
        if certify.timed_out or certify.code != 0:
            status, detail = self._classify(0, certify)
            return Result(request, certify.seconds, status, "certify: " + detail)
        text = path.read_text(encoding="utf-8")
        x, y = int(request.argv[2]), int(request.argv[4])
        digest = _digest(text)
        if self.verified.get(request.argv) != digest:
            problem = certify.stdout and "certify --out wrote to stdout"
            problem = problem or checks.check_certificate_file(x, y, text)
            if problem:
                return Result(request, certify.seconds, WRONG, "certify: " + problem)
            self.verified[request.argv] = digest
        payload = json.loads(text)
        if request.tamper:
            path.write_text(json.dumps(tamper_certificate(payload, request.tamper), indent=2) + "\n",
                            encoding="utf-8")
        remaining = max(self.deadline_s - certify.seconds, 1e-3)
        verify = self.call(("verify", str(path)), remaining)
        seconds = self.deadline_s if verify.timed_out else certify.seconds + verify.seconds
        if verify.timed_out:
            return Result(request, seconds, DEADLINE, f"verify: no answer within {self.deadline_s} s")
        if verify.code is None:
            return Result(request, seconds, EXIT, "verify: " + verify.stderr)
        if verify.code != request.expect_exit:
            # A verdict the checks refute (accepting a tampered file, rejecting
            # an honest one) is a wrong output; any other code is a failure.
            status = WRONG if {verify.code, request.expect_exit} == {0, 1} else EXIT
            return Result(request, seconds, status,
                          f"verify: exit {verify.code}, expected {request.expect_exit}: "
                          f"{verify.stderr[:120]}")
        problem = checks.check_verify(request.tamper is not None, verify.stdout,
                                      verify.stderr, payload)
        if problem:
            return Result(request, seconds, WRONG, "verify: " + problem)
        return Result(request, seconds, OK)


def run_cycles(runner: Runner, cycle: list[Request], seconds: float, min_requests: int,
               between=lambda busy: None) -> list[list[Result]]:
    """Closed loop over whole cycles until ``seconds`` of request time and
    ``min_requests`` requests are reached.  Returns the results of each cycle.

    ``between(busy)`` is called after every request, outside the timed
    region, with the request time so far.
    """
    cycles: list[list[Result]] = []
    busy = 0.0
    while busy < seconds or len(cycles) * len(cycle) < min_requests:
        results = []
        for request in cycle:
            results.append(runner.execute(request))
            busy += results[-1].seconds
            between(busy)
        cycles.append(results)
    return cycles
