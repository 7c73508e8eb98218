import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paper_scale.py"
HELD_MB = 32

# a process that forks once it is told to; the grandchild then holds HELD_MB of
# written bytes until it is told to exit
FORKING_CHILD = f"""
import os, sys
print("up", flush=True)
sys.stdin.readline()
if os.fork() == 0:
    block = b"\\x01" * ({HELD_MB} << 20)
    print("held", flush=True)
    sys.stdin.readline()
    os._exit(0)
os.wait()
"""


@pytest.fixture(scope="module")
def paper_scale():
    spec = importlib.util.spec_from_file_location("paper_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def own_pss_kb(pid):
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Pss:"))


@pytest.mark.skipif(not Path("/proc/self/smaps_rollup").exists(), reason="no smaps_rollup")
def test_summed_pss_counts_a_forked_descendant(paper_scale):
    child = subprocess.Popen([sys.executable, "-c", FORKING_CHILD], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "up\n"
        before = paper_scale.tree_pss_kb(child.pid), own_pss_kb(child.pid)
        child.stdin.write("\n")
        child.stdin.flush()
        assert child.stdout.readline() == "held\n"
        after = paper_scale.tree_pss_kb(child.pid), own_pss_kb(child.pid)
        child.stdin.write("\n")
        child.stdin.flush()
        assert child.wait(timeout=30) == 0
    finally:
        child.kill()
        child.wait()
    tree_mb, own_mb = ((a - b) / 1024 for a, b in zip(after, before))
    assert HELD_MB * 0.95 < tree_mb < HELD_MB * 1.25, (before, after)
    assert own_mb < HELD_MB / 8, (before, after)  # the bytes are the grandchild's alone
