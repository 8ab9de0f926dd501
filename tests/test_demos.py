"""Each demo prints deterministic output.  Run in a fresh interpreter
against this checkout's src/, it must exit 0 and print exactly the bytes
whose SHA-256 is recorded here; a change to a demo's output has to
update its digest on purpose."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "dropout_recovery.py":
        "975b3dd788b5c2929ee640533b14cc558bb06dc100a8d9ddbce9bf672ee89ad5",
    "scaling_trends.py":
        "4d92d6e3a96cb9389f1065d56b71553e846dc450bb74a31f2db91b3b314852ac",
    "secret_sharing_tour.py":
        "5319f9b070129273f09770b6569225837e56ae6d2de573976a966ddff8558791",
    "three_protocols.py":
        "d49bd85805021351b7b277c1782d8632470cf5c3fa07a49df3d98c9597258ad4",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_recorded_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
