"""Starts the benchmark's child processes and reaps each with ``os.wait4``.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the process that
forked it, so children forked by ``run.py`` after it has built the inputs
would report the harness's memory. ``run.py`` therefore starts this small
process first and has it fork every measured child.

Protocol: one JSON request per stdin line, ``{"cmd": [...], "log": PATH,
"timeout": SECONDS}``; one JSON reply per stdout line, ``{"rc": INT,
"wall_s": FLOAT, "maxrss_kb": INT}``. The child's stdout and stderr go to
the log file. The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run_one(cmd, log_path, timeout):
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_one(req["cmd"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
