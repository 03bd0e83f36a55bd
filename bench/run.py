"""treecontract benchmark.

    python3 bench/run.py --workload wide|deep|pipelines --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Workloads, metrics and bounds are listed in
BENCHMARK.json, and bench/README.md explains them. The run happens in a fresh
interpreter with a pinned environment: PYTHONHASHSEED fixed, TC_THREADS
unset (so the simulator's thread pool is never measured), bytecode caching
on, and the package imported from this checkout's src/. The last line of
stdout is the result object; the exit code is 0 only when every solve passed
its oracle check.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def main():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "treecontract", "__init__.py")):
        print("bench: no treecontract sources under %s" % src, file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if k not in ("TC_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=src,
               PYTHONPYCACHEPREFIX=os.path.join(HERE, "out", "pycache"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench: run exceeded %d s, stopped" % TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
