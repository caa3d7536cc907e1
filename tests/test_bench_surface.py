"""The benchmark's view of the library: every name its tracer wraps resolves.

`perfbench/tracer.py` wraps library functions by module and name, so a
rename in `satdecomp` breaks the traced benchmark run. Installing and
removing the recorder resolves every one of those names. It runs in a
child process because `workloads.Program` purges and re-imports
`satdecomp`, which must not happen inside the test process.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODE = """
import sys
src, bench = sys.argv[1:]
sys.path[:0] = [src, bench]
import tracer, workloads
sd = workloads.Program(src)
rec = tracer.Recorder(sd, "surface")
rec.install()
rec.remove()
print("ok")
"""


def test_tracer_targets_resolve_in_the_library():
    proc = subprocess.run(
        [sys.executable, "-c", CODE,
         os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
