"""``repro serve`` under SIGTERM: drain, stop the workers, exit 0.

SIGTERM is what process managers (and ``Popen.terminate``) send to stop
a service.  The server must treat it like Ctrl-C and leave no worker
process of its process group behind.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0], q[3];
cx q[1], q[2];
cx q[3], q[1];
"""


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="POSIX process groups")
def test_sigterm_drains_and_exits_cleanly(tmp_path):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.path.abspath(SRC) + (
        os.pathsep + existing if existing else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--store-dir", str(tmp_path / "store"),
            "--workers", "1",
            "--execution", "process",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    pgid = process.pid
    try:
        banner = process.stderr.readline()
        match = re.search(r"http://[\d.]+:\d+", banner)
        assert match, f"no service URL in startup line {banner!r}"
        client = ServiceClient(match.group(0), timeout=60)
        client.wait_until_healthy(timeout=30)
        reply = client.compile(QASM, trials=1)
        assert reply["state"] == "done"

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 0
        # Every process of the server's group (its worker lane) is gone.
        deadline = time.monotonic() + 10
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        if process.poll() is None or _group_alive(pgid):
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=10)
        process.stderr.close()
