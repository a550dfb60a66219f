"""Start the benchmark's child processes from a small interpreter.

A child's peak resident set (ru_maxrss) includes the memory image it was
forked from, so children forked by run.py, which holds numpy and sympy,
would all read at least run.py's size.  run.py starts this script instead
and sends it one JSON request per line, {"cmd": [...], "log": path}; it
runs the command with its output in the log and answers with one line,
{"wall_s", "rss_kb", "exit"}.  It stops at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "w", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
