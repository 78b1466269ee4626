"""Tests of the benchmark itself: generator, checkers, deadline, tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import signal
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from bench import checks, harness, run, tracing
from bench.workloads import (
    GRIDS,
    TAMPER_FIELDS,
    WORKLOADS,
    Request,
    build_cycle,
    tamper_certificate,
)

cli = run.load_cli()


@pytest.fixture
def runner(tmp_path):
    return harness.Runner(cli, 2.0, tmp_path)


def _output(argv):
    outcome = harness.Runner(cli, 5.0, Path("unused")).call(argv, 5.0)
    assert outcome.code == 0, outcome.stderr
    return outcome.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cycle_is_deterministic_for_a_seed(workload):
    assert build_cycle(workload, 7) == build_cycle(workload, 7)
    assert build_cycle(workload, 7) != build_cycle(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_has_the_same_class_composition(workload):
    want = Counter({cls.name: cls.copies for cls in GRIDS[workload]})
    for seed in range(5):
        assert Counter(r.cls for r in build_cycle(workload, seed)) == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_digits_checker_rejects_one_corrupted_digit(fmt):
    argv = ("digits", "--expr", "exp", "--x", "2", "--y", "3", "--digits", "60", "--format", fmt)
    stdout = _output(argv)
    assert checks.check_digits(argv, stdout) is None
    marker = "1.94773404105467"  # e^(2/3)
    assert marker in stdout
    position = stdout.index(marker) + len(marker) + 20
    wrong = str((int(stdout[position]) + 1) % 10)
    corrupted = stdout[:position] + wrong + stdout[position + 1:]
    assert checks.check_digits(argv, corrupted) is not None


def test_digits_reference_decides_values_near_a_truncation_boundary():
    # tanh(1000) = 1 - 2e-869: ten truncated digits are all nines.
    assert checks.reference_scaled_floor("tanh", 1000, 1, 10) == 10**10 - 1


@pytest.mark.parametrize("argv", [
    ("convergents", "--expansion", "e", "--depth", "40", "--format", "text"),
    ("convergents", "--expansion", "tanh", "--x", "7", "--y", "3", "--depth", "25", "--format", "json"),
])
def test_convergents_checker_accepts_the_table_and_rejects_a_bad_gap(argv):
    stdout = _output(argv)
    assert checks.check_convergents(argv, stdout) is None
    if argv[-1] == "json":
        payload = json.loads(stdout)
        gap = Fraction(payload["convergents"][10]["gap"])
        payload["convergents"][10]["gap"] = str(gap * 2)
        corrupted = json.dumps(payload)
    else:
        lines = stdout.splitlines(keepends=True)
        fields = lines[11].split()
        fields[4] = str(Fraction(fields[4]) * 2)
        lines[11] = "  ".join(fields) + "\n"
        corrupted = "".join(lines)
    assert "determinant identity" in checks.check_convergents(argv, corrupted)


@pytest.mark.parametrize("fmt,stdout", [("text", ""), ("text", "n h k\n"), ("json", "{}")])
def test_convergents_checker_rejects_empty_or_truncated_tables(fmt, stdout):
    argv = ("convergents", "--expansion", "e", "--depth", "3", "--format", fmt)
    assert checks.check_convergents(argv, stdout) is not None


def test_convergents_checker_rejects_a_wrong_last_row():
    argv = ("convergents", "--expansion", "e", "--depth", "12", "--format", "json")
    payload = json.loads(_output(argv))
    row = payload["convergents"][-1]
    row["h"], row["k"] = str(int(row["h"]) * 2), str(int(row["k"]) * 2)
    assert checks.check_convergents(argv, json.dumps(payload)) is not None


@pytest.mark.parametrize("x,y", [(0, 5), (3, 2), (-14, 1), (45, 1), (99, 7), (1000, 999), (6, 4)])
def test_closed_form_certificate_matches_the_library(x, y):
    from cfrac.irrationality import certify_irrational

    cert = certify_irrational(x, y)
    want = checks.expected_certificate(x, y)
    assert want["tailIndex"] == str(cert.tail_index)
    assert want["reducedX"] == str(cert.reduced_x)
    assert want["verdict"] == cert.verdict


# checkedPrefixDepth is only required to reach past the threshold index, so
# that a deeper explicit check stays acceptable; verify rejects its tampering.
@pytest.mark.parametrize("field", [f for f in TAMPER_FIELDS if f != "checkedPrefixDepth"])
def test_certificate_checker_rejects_each_tampered_field(field):
    text = cli.certificate_to_json(cli.certify_irrational(45, 1))
    assert checks.check_certificate_file(45, 1, text) is None
    tampered = json.dumps(tamper_certificate(json.loads(text), field), indent=2)
    assert checks.check_certificate_file(45, 1, tampered) is not None


@pytest.mark.parametrize("field", TAMPER_FIELDS)
def test_verify_rejects_each_tampered_field_with_exit_1(runner, field):
    argv = ("certify", "--x", "10", "--y", "2", "--format", "json")
    request = Request("certificates", "tampered", argv, 1, None, tamper=field)
    assert runner.execute(request).status == harness.OK


def test_a_verify_that_accepts_tampering_is_a_wrong_output(tmp_path):
    class AcceptingCli:
        """The real CLI, except that verify accepts every file."""

        @staticmethod
        def run(argv):
            if argv[0] == "verify":
                cert = cli.certificate_from_json(open(argv[1], encoding="utf-8").read())
                print(f"certificate verified to depth {cert.checked_prefix_depth}: {cert.statement()}")
                return 0
            return cli.run(argv)

    request = next(r for r in build_cycle("certificates", 1)
                   if r.tamper and r.cls == "tampered cert(5/1)")
    result = harness.Runner(AcceptingCli, 2.0, tmp_path).execute(request)
    assert result.status == harness.WRONG
    assert not run.outcome_fields([result])["correct"]


def test_deadline_interrupts_a_busy_loop_and_is_cleared():
    with pytest.raises(harness.DeadlineExceeded):
        with harness.deadline(0.05):
            while True:
                pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_deadline_is_not_swallowed_by_the_cli_and_is_charged_exactly(runner):
    argv = ("digits", "--expr", "tanh", "--x", "1000", "--y", "1", "--digits", "10")
    start = perf_counter()
    outcome = runner.call(argv, 0.2)
    assert outcome.timed_out and outcome.code is None
    assert outcome.seconds == 0.2
    assert perf_counter() - start < 1.0


def test_tracer_reports_absent_points_and_restores_originals(monkeypatch):
    monkeypatch.setitem(tracing.TRACE_POINTS, "core.gone", ("core:no_such_function",))
    monkeypatch.setitem(tracing.TRACE_POINTS, "core.gone_method", ("core:ConvergentState.gone",))
    original_run = cli.run
    original_step = cli.ConvergentState.step
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        assert patch.absent == ["core:no_such_function", "core:ConvergentState.gone"]
        assert cli.run is not original_run
        assert cli.run(["convergents", "--expansion", "e", "--depth", "5"]) == 0
        tracer.finish(keep=True)
    finally:
        patch.restore()
    assert cli.run is original_run and cli.ConvergentState.step is original_step
    kept = tracer.kept
    assert kept.calls["cli.run"] == 1
    assert kept.calls["core.step"] == 5
    assert kept.calls["cli.decimal_preview"] == 5
    assert kept.self_s["cli.run"] > 0


def test_tracer_drops_the_tally_of_an_abandoned_request(runner):
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        kept = runner.call(("digits", "--expr", "exp", "--x", "1", "--y", "1", "--digits", "20"), 2.0)
        tracer.finish(keep=True)
        tracer.request = 1
        abandoned = runner.call(("digits", "--expr", "tanh", "--x", "1000", "--y", "1",
                                 "--digits", "10"), 0.2)
        tracer.finish(keep=False)
    finally:
        patch.restore()
    assert kept.code == 0 and abandoned.timed_out
    assert (tracer.requests_kept, tracer.requests_dropped) == (1, 1)
    assert tracer.kept.calls["cli.run"] == 1
    assert tracer.kept.calls["cli.certified_digits"] == 1
    assert {span[2] for span in tracer.kept.spans} == {0}


def test_tracer_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0]).__next__
    step = tracing._traced(tracer, "core.step", "core", lambda: None)
    digits = tracing._traced(tracer, "cli.certified_digits", "cli", lambda: step())
    run_ = tracing._traced(tracer, "cli.run", "cli", lambda: digits())
    run_()
    tracer.finish(keep=True)
    assert tracer.kept.self_s["core.step"] == 2.0
    assert tracer.kept.self_s["cli.certified_digits"] == 2.0
    assert tracer.kept.self_s["cli.run"] == 6.0
    # per-term spans are aggregated only; the others keep their parent link
    assert [(s[0], s[1], s[3]) for s in tracer.kept.spans] == [
        (2, 1, "cli.certified_digits"), (1, None, "cli.run")]


def test_throughput_leaves_out_requests_abandoned_at_the_deadline():
    request = build_cycle("digits", 1)[0]
    cycle = [harness.Result(request, 0.1, harness.OK),
             harness.Result(request, 0.3, harness.EXIT),
             harness.Result(request, 2.0, harness.DEADLINE)]
    assert run.returned_per_s(cycle) == pytest.approx(2 / 0.4)


def test_run_cycles_runs_whole_cycles_and_calls_between_after_each_request():
    request = build_cycle("digits", 1)[0]

    class Fixed:
        def execute(self, req):
            return harness.Result(req, 0.5, harness.OK)

    seen = []
    cycles = harness.run_cycles(Fixed(), [request] * 3, 2.0, 1, seen.append)
    assert [len(c) for c in cycles] == [3, 3]
    assert seen == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
