"""Runs command lines for bench/run.py, one at a time, and reports each
one's exit code and peak resident memory.

A child's peak RSS counts the RSS of the process that forked it, so the
commands are forked from this small stdlib-only process rather than from
the benchmark process, which holds numpy and the inputs.

Protocol, one JSON object per line: requests {"argv", "out", "err"} on
stdin, replies {"code", "maxrss_kb"} on stdout.  EOF on stdin ends it.
"""

import json
import os
import subprocess
import sys
import threading

TIMEOUT = 60.0  # seconds before a hung command is killed


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            watchdog = threading.Timer(TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
