import os
import subprocess
import sys
from pathlib import Path

import cfrac


def test_python_dash_m_cfrac_prints_digits():
    src = str(Path(cfrac.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "cfrac", "digits", "--expr", "exp", "--x", "1", "--y", "1",
         "--digits", "15"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "2.718281828459045"


def test_python_dash_m_cfrac_cli_prints_digits():
    src = str(Path(cfrac.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "cfrac.cli", "digits", "--expr", "exp", "--x", "1", "--y", "1",
         "--digits", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "2.71828"


def test_every_public_name_resolves():
    namespace = {}
    exec("from cfrac import *", namespace)
    assert len(set(cfrac.__all__)) == len(cfrac.__all__) == 32
    assert all(name in namespace for name in cfrac.__all__)


def test_import_cfrac_cli_loads_neither_pathlib_nor_typing():
    # -S leaves out site, which imports both in some installs, so only cfrac's
    # own imports are seen.
    src = str(Path(cfrac.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, cfrac.cli; print(sorted({'pathlib', 'typing'} & sys.modules.keys()))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
