"""Hostile request lines get typed errors, fast, inside a memory limit.

Each line of ``tests/data/hostile_requests.jsonl`` is one request that
made the service ask numpy for gigabytes, run a job for days, reply with
an internal error, fail only after the job was keyed, or quietly accept a
value of the wrong type.  A child process with a 1 GiB address-space
limit feeds every line through one :class:`Dispatcher` and times each
reply, so the test runner itself never makes an allocation a line asks
for.  It then feeds every line again: a rejected line changes nothing,
so the second pass's replies are the first's, byte for byte.  The CI
job ``hostile-input-smoke`` pipes the same file into ``repro serve``.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
LINES = (REPO / "tests" / "data" / "hostile_requests.jsonl").read_text()

CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import repro.dse
from repro.serve.dispatch import Dispatcher, canonical_reply
dispatcher = Dispatcher()
lines = sys.stdin.readlines()
out = []
for line in lines:
    started = time.perf_counter()
    reply = dispatcher.handle_line(line)
    out.append([time.perf_counter() - started, canonical_reply(reply)])
again = [canonical_reply(dispatcher.handle_line(line)) for line in lines]
print(json.dumps([out, again]))
"""

#: What each reply's error names, by request id.
EXPECTED = {
    1: "machine state needs", 2: "machine state needs",
    3: "machine state needs", 4: "'config.max_cycles' must be at most",
    5: "'max_cycles' must be null or an integer in 1..10000000",
    6: "'max_cycles' must be null or an integer in 1..10000000",
    7: "'config.max_cycles' must be at most",
    8: "'num_pes' must be an integer >= 1, got '16'",
    9: "'mt_mode' must be one of", 10: "'max_cycles' must be an integer",
    11: "'num_threads' must be an integer >= 1, got 2.0",
    12: "'lmem_words' must be an integer >= 1, got 1.5",
    13: "'sanitize' must be true or false, got 'no'",
    14: "'name' must be a string, got {'a': 1}",
    15: "bad base config: bad config: 'mt_mode' must be one of",
    16: "'cycle' must be an integer >= 0, got '3'",
    17: "'pe' must be an integer >= 0, got 'x'",
    18: "'iters' must be an integer, got True",
    19: "'word_width' must be one of 8, 16, 32, got 12",
    20: "'a' must be an integer, got 1.5",
    21: "bins=100000 must be in 1..1024",
    22: "rows=100000 must be in 1..4095",
    23: "unknown run request field(s): max_cycles",
    24: "'tenant' must be a string, got {'x': 1}",
    25: "lmem column '0' must be a list of 64-bit integers, got [1e+300]",
    26: "lmem column '0' must be a list of 64-bit integers, got [True, 2]",
    27: "'lmem' columns must be below the config's lmem_words=1024",
    28: "cannot build kernel 'image_threshold' at 16 PEs: image_threshold "
        "needs >= 2000 local words",
    29: "cannot build kernel 'mst_prim' at 16 PEs: mst_prim needs >= 14 "
        "local words",
}


def test_every_hostile_line_gets_a_typed_error_fast():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], input=LINES,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, again = json.loads(proc.stdout)
    assert len(first) == len(LINES.splitlines()) == len(EXPECTED)
    assert again == [text for _seconds, text in first]
    for seconds, text in first:
        reply = json.loads(text)
        assert reply["ok"] is False and "status" not in reply, reply
        assert EXPECTED[reply["id"]] in reply["error"], reply
        assert not reply["error"].startswith("internal error"), reply
        assert seconds < 0.1, (seconds, reply)
