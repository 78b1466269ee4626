import subprocess
import sys
from pathlib import Path

from bench.workloads import build_cycle

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
PINNED = TOOL.with_name("outputs.txt")


def test_outputs_prints_one_stable_line_per_distinct_request():
    runs = [
        subprocess.run([sys.executable, str(TOOL), "certificates", "--seeds", "1"],
                       capture_output=True, text=True, timeout=120, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    requests = {(r.argv, r.tamper): r for r in build_cycle("certificates", 1)}
    lines = runs[0].splitlines()
    assert len(lines) == len(requests)
    # certify exits 0; verify exits as the bench expects, 1 on each tampered file
    codes = [line.split()[1] for line in lines]
    assert codes == [f"0/{r.expect_exit}" for r in requests.values()]
    assert all(line.startswith("certificates  ") for line in lines)


def test_outputs_match_the_pinned_digests():
    # Every exit code, stdout and stderr byte of the bench requests, helps,
    # usage errors and demos, as tools/outputs.txt records them.  Regenerate
    # that file only with a change whose outputs are meant to differ, and say
    # why in CHANGES.md.  The help texts are those of Python 3.11's argparse.
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         timeout=300, check=True)
    assert run.stdout.splitlines() == PINNED.read_text(encoding="utf-8").splitlines()
