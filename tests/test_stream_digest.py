"""tools/stream_digest.py prints the digests recorded in stream_digest.txt.

The digests are exact float bits, which may move with the Python, numpy
or scipy version, so the test runs only on the versions named in the
file's first line.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_name("stream_digest.txt")


def test_stream_digest_matches_recorded_output():
    versions, expected = EXPECTED.read_text().split("\n", 1)
    here = "python %s numpy %s scipy %s" % (
        platform.python_version(), np.__version__, scipy.__version__)
    if here != versions:
        pytest.skip("digests were recorded with %s; this is %s" % (versions, here))
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run([sys.executable, "tools/stream_digest.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == expected
