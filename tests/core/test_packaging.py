"""setup.py carries real metadata for the src-layout package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_setup_py_names_the_package():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "repro"
