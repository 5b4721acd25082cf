import subprocess
import sys

# modules the package must not import: fractions and decimal belong to the
# tests' exact references, argparse and the command line to `python -m`
ABSENT = ("fractions", "decimal", "argparse", "snaketrack.cli")


def test_package_import_stays_small():
    # a fresh interpreter, since this one has already imported the tests' own
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, snaketrack; print(' '.join(sorted(sys.modules)))"],
        check=True, capture_output=True, text=True).stdout.split()
    assert [m for m in ABSENT if m in out] == []
