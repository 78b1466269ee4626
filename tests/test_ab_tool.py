import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def _ab(a, b, *options):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b), *options],
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_an_a_a_run_pairs_every_call_of_one_class():
    # 3 copies of the class per cycle, 4 rounds: 12 pairs, no output differs
    lines = _ab(ROOT, ROOT, "--classes", "e@10 text", "--rounds", "4").splitlines()
    assert lines[0].split() == ["class", "pairs", "A", "ms", "B", "ms", "B/A",
                                "B-A", "q1", "median", "q3", "B", "won"]
    (cls, pairs, *_, won), (cycle, rounds, *_) = (line.rsplit(maxsplit=8) for line in lines[1:])
    assert (cls, pairs, cycle, rounds) == ("e@10 text", "12", "cycle", "4")
    assert 0 <= float(won) <= 1


def test_a_request_whose_output_differs_is_flagged(tmp_path):
    shutil.copytree(ROOT / "src" / "cfrac", tmp_path / "src" / "cfrac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "cfrac" / "cli.py"
    cli.write_text(cli.read_text().replace("PREVIEW_DIGITS = 20", "PREVIEW_DIGITS = 21"))
    lines = _ab(ROOT, tmp_path, "--classes", "e@10 text", "--rounds", "1").splitlines()
    assert lines[1].rsplit(maxsplit=8)[:2] == ["e@10 text!", "3"]
