"""Request grids and the seeded mix generator for the three workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has returned.  A mix is one *cycle* built from a
small fixed set of request classes, each repeated ``copies`` times.  The
benchmark runs whole cycles, so every run sees the same class composition,
and the classes are chosen so that the median and the 90th percentile fall
inside a ladder of requests of neighbouring size, never on the edge between
two classes of very different cost (a log-uniform mix of sizes made p90 jump
by half between runs of identical code).

The seed changes what each request looks like but not how much work it is:
the order of the cycle, the output format of digits, a common factor on x/y
that the library reduces away, a downward jitter of at most two digits or
two rows, and which certificate field is tampered with.

``known_failure`` marks the classes that fail at the seed commit, with the
ROADMAP item whose fix should turn them into successes; they stay in the
grid so that a fix shows up as a rising ``ok_ratio``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Per-request deadline in seconds.  A request still running then is
#: abandoned, fails, and is charged exactly this long in the latencies; it is
#: left out of ``requests_per_s`` and of the per-layer figures, so the fixed
#: charge does not dilute them.  Every class that passes at the seed commit
#: answers in under half of it on a 2-core x86 VM (the slowest, ``e@2000``
#: and ``cert(141/1)``, in about 0.8 s), and so does ``exp(1/2)@4400``, which
#: fails only at rendering (item 4a).
DEADLINE_S = 2.0

#: Fields of the canonical certificate that a tampering request may alter.
#: ``engineVersion`` is left out: it is informational and never re-derived.
TAMPER_FIELDS = (
    "x",
    "y",
    "reducedX",
    "reducedY",
    "tailIndex",
    "checkedPrefixDepth",
    "thresholdIndex",
    "verdict",
)

#: ROADMAP items that explain the known failures.
KNOWN_FAILURE_ITEMS = {
    "3": "certify and verify scan every term: O(x^2/y) time, deadline miss",
    "4a": "CPython's 4300-digit int<->str limit: exit 2",
    "4a/2": "deadline miss: evaluation alone takes ~7 s (item 2), then exit 2 at rendering (4a)",
    "4b": "64-round refinement schedule cannot pin tanh(1000): deadline miss",
}


@dataclass(frozen=True)
class RequestClass:
    """One kind of request, repeated ``copies`` times in every cycle.

    ``params`` is workload-specific:
    digits ``(expr, x, y, digits)``, convergents ``(expansion, x, y, depth,
    format)`` and certificates ``(x, y, tampered)``.
    """

    name: str
    copies: int
    params: tuple
    expect_exit: int = 0
    known_failure: str | None = None


@dataclass(frozen=True)
class Request:
    """One generated request.

    ``argv`` is the command line handed to ``cfrac.cli.run``; for
    certificates it is the ``certify`` command without ``--out``, which the
    harness appends.  ``expect_exit`` is the exit code of the last command
    of the request (``verify`` for certificates).
    """

    workload: str
    cls: str
    argv: tuple[str, ...]
    expect_exit: int
    known_failure: str | None
    tamper: str | None = None


def _digits(expr, x, y, n, copies=1, expect_exit=0, known_failure=None):
    name = f"{expr}({x}/{y})@{n}"
    return RequestClass(name, copies, (expr, x, y, n), expect_exit, known_failure)


def _conv(expansion, depth, copies=1, x=None, y=None, fmt="text", expect_exit=0,
          known_failure=None):
    name = f"e@{depth}" if expansion == "e" else f"tanh({x}/{y})@{depth}"
    return RequestClass(f"{name} {fmt}", copies, (expansion, x, y, depth, fmt), expect_exit,
                        known_failure)


def _cert(x, y, copies=1, tampered=False, known_failure=None):
    name = f"{'tampered ' if tampered else ''}cert({x}/{y})"
    return RequestClass(name, copies, (x, y, tampered), 1 if tampered else 0, known_failure)


# Latencies quoted below are seed-commit medians on a 2-core x86 VM.  Around
# each percentile the classes form a ladder of neighbouring sizes rather than
# copies of one request: host contention makes single requests bimodal (about
# x1.5 between modes), and the percentile of identical requests then jumps
# between the modes from run to run, while a ladder moves smoothly.
GRIDS: dict[str, tuple[RequestClass, ...]] = {
    "digits": (
        # expected refusals: tanh needs x >= 1 (exit 1)
        _digits("tanh", -1, 1, 10, expect_exit=1),
        _digits("tanh", 0, 7, 10, expect_exit=1),
        # 100 and 300 digits, small x/y (3-10 ms)
        _digits("exp", 1, 1, 100),
        _digits("exp", 1, 2, 100),
        _digits("exp", 2, 3, 100),
        _digits("exp", -1, 1, 100),
        _digits("tanh", 1, 1, 100),
        _digits("tanh", 1, 2, 100),
        _digits("tanh", 2, 3, 100),
        _digits("exp", 1, 2, 300),
        _digits("exp", 2, 3, 300),
        _digits("tanh", 1, 2, 300),
        _digits("tanh", 2, 3, 300),
        # large x/y at 100 and 300 digits (6-20 ms)
        _digits("exp", 355, 113, 100),
        _digits("exp", 59, 7, 100),
        _digits("exp", 60, 1, 100),
        _digits("exp", -40, 1, 100),
        _digits("tanh", 37, 2, 100),
        _digits("tanh", 60, 1, 100),
        _digits("tanh", 20, 1, 300),
        # the median ladder (25-65 ms)
        *(_digits("exp", 1, 1, n) for n in range(800, 1300, 50)),
        # 1000 digits at large x/y, 2000 to 4200 digits at small x/y (80-190 ms)
        _digits("exp", 355, 113, 1000),
        _digits("exp", 59, 7, 1000),
        _digits("exp", -40, 1, 1000),
        _digits("tanh", 60, 1, 1000),
        _digits("tanh", 100, 1, 1000),
        _digits("exp", 1, 2, 2000),
        _digits("exp", 2, 3, 2000),
        _digits("exp", -1, 1, 2000),
        _digits("exp", 1, 1, 2000),
        _digits("tanh", 1, 1, 3000),
        _digits("tanh", 2, 3, 3000),
        _digits("tanh", 1, 2, 4200),
        # the p90 ladder (250-420 ms)
        *(_digits("exp", 1, 1, n) for n in range(2700, 3400, 150)),
        # known failures
        _digits("exp", 1, 2, 4400, known_failure="4a"),
        _digits("exp", 1, 1, 10000, known_failure="4a/2"),
        _digits("tanh", 1000, 1, 10, known_failure="4b"),
    ),
    "convergents": (
        # The format is part of the class, alternating between text and JSON,
        # so the largest table, which sets the peak memory, is the same
        # on every seed.
        # expected refusal: depth must be >= 1 (exit 1)
        _conv("e", 0, expect_exit=1),
        # shallow tables (2-10 ms)
        _conv("e", 10, copies=3),
        _conv("e", 100, copies=3, fmt="json"),
        _conv("tanh", 10, copies=3, x=1, y=2, fmt="json"),
        _conv("tanh", 100, copies=3, x=1, y=2),
        _conv("tanh", 30, copies=3, x=7, y=3),
        _conv("tanh", 100, copies=3, x=7, y=3, fmt="json"),
        # the median ladder (15-30 ms)
        *(_conv("e", depth, fmt=("text", "json")[i % 2])
          for i, depth in enumerate(range(250, 350, 10))),
        # 40-80 ms
        _conv("tanh", 300, copies=4, x=1, y=2),
        _conv("tanh", 300, copies=4, x=7, y=3, fmt="json"),
        _conv("e", 500, copies=4),
        # the p90 ladder (110-180 ms)
        *(_conv("e", depth, fmt=("text", "json")[i % 2])
          for i, depth in enumerate(range(900, 1150, 50))),
        # deepest passing tables, then rows past 4300 digits (known failures)
        _conv("e", 2000),
        _conv("e", 1900, fmt="json"),
        _conv("e", 3000, known_failure="4a"),
        _conv("tanh", 1000, x=1, y=2, fmt="json", known_failure="4a"),
    ),
    "certificates": (
        # x = 0 has the NotApplicable verdict; the rest have tail indices
        # x^2/2y from 13 to 10^4.  The tampered classes (11 of the 50
        # requests) all sit below the median, because the field altered
        # changes the cost of verify.
        _cert(0, 5),
        _cert(0, 5, tampered=True),
        _cert(5, 1),
        _cert(5, 1, copies=2, tampered=True),
        _cert(-14, 1, copies=2),
        _cert(14, 1, copies=2, tampered=True),
        _cert(20, 1, copies=2),
        _cert(20, 1, copies=2, tampered=True),
        _cert(30, 1, copies=2, tampered=True),
        _cert(99, 7, copies=2),
        _cert(1000, 999),
        _cert(1000, 999, copies=2, tampered=True),
        # the median ladder (50-110 ms)
        *(_cert(x, 1) for x in range(38, 58, 2)),
        # 130-220 ms
        _cert(-60, 1, copies=3),
        _cert(64, 1, copies=3),
        _cert(70, 1, copies=3),
        _cert(76, 1, copies=3),
        # the p90 ladder (240-330 ms)
        *(_cert(x, 1) for x in range(92, 112, 4)),
        # largest passing tail index, then the class that hangs today
        _cert(141, 1),
        _cert(1000, 1, known_failure="3"),
        _cert(1000001, 3, known_failure="3"),
    ),
}

WORKLOADS = tuple(GRIDS)


def _digits_request(cls: RequestClass, rng: random.Random) -> Request:
    expr, x, y, n = cls.params
    m = rng.randint(1, 3)
    n -= rng.randint(0, 2) if n > 10 else 0
    fmt = rng.choice(("text", "json"))
    argv = ("digits", "--expr", expr, "--x", str(m * x), "--y", str(m * y),
            "--digits", str(n), "--format", fmt)
    return Request("digits", cls.name, argv, cls.expect_exit, cls.known_failure)


def _convergents_request(cls: RequestClass, rng: random.Random) -> Request:
    expansion, x, y, depth, fmt = cls.params
    depth -= rng.randint(0, 2) if depth > 10 else 0
    argv = ("convergents", "--expansion", expansion)
    if expansion == "tanh":
        argv += ("--x", str(x), "--y", str(y))
    argv += ("--depth", str(depth), "--format", fmt)
    return Request("convergents", cls.name, argv, cls.expect_exit, cls.known_failure)


def _certificates_request(cls: RequestClass, rng: random.Random) -> Request:
    x, y, tampered = cls.params
    m = rng.randint(1, 3)
    tamper = rng.choice(TAMPER_FIELDS) if tampered else None
    argv = ("certify", "--x", str(m * x), "--y", str(m * y), "--format", "json")
    return Request("certificates", cls.name, argv, cls.expect_exit, cls.known_failure, tamper)


_MAKERS = {
    "digits": _digits_request,
    "convergents": _convergents_request,
    "certificates": _certificates_request,
}


def build_cycle(workload: str, seed: int) -> list[Request]:
    """One cycle of ``workload`` for ``seed``: every class, ``copies`` times, shuffled."""
    if workload not in GRIDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    cycle = [make(cls, rng) for cls in GRIDS[workload] for _ in range(cls.copies)]
    rng.shuffle(cycle)
    return cycle


def tamper_certificate(payload: dict, field: str) -> dict:
    """A copy of ``payload`` with one field changed to another well-formed value."""
    altered = dict(payload)
    if field == "verdict":
        altered[field] = (
            "NotApplicable" if payload[field] == "CertifiedIrrational" else "CertifiedIrrational"
        )
    else:
        altered[field] = str(int(payload[field]) + 1)
    return altered
