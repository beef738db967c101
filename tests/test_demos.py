import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one line of each demo's output that its computation pins down exactly
EXPECTED = {
    "01_giant_emergence.py": (
        "one trial at eps=0.5: retained=21764 giant=11059 second=72 components=6215",
    ),
    "02_dfs_coupling.py": ("labelings identical: True",),
    "03_subcube_separation.py": ("pairwise disjoint: True",),
    "04_rare_structures.py": (
        "planted 20 vertices into one 2-sphere: caught, measured=20 threshold=20",
    ),
    "05_two_round_sprinkling.py": (
        "T/M/S partition: T=1329 M=4308 S=10747 (n=16384)",
        "per-component flags consistent with final labels: True",
    ),
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    for line in EXPECTED[name]:
        assert line in lines, (line, out.stdout)
