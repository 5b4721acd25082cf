import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Twenty 384x384 float64 arrays live at once and then freed, as one frame's
# temporaries are; prints the page faults of ten such frames after two warm-ups.
FRAMES = """
import resource
import numpy as np
import snaketrack

def frame():
    temporaries = [np.ones((384, 384)) for _ in range(20)]
    return sum(float(a[0, 0]) for a in temporaries)

frame(); frame()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    frame()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc only")
def test_frame_temporaries_reuse_freed_memory():
    # each frame would refault its 24 MB (about 58000 pages) if the freed
    # heap top went back to the kernel
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", FRAMES], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 2000
