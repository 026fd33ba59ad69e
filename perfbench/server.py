"""Launch, talk to, measure and kill the ``repro serve`` front door.

The server runs as ``python -m repro serve SCHEME --store DIR --shards
2 --fsync-every 32 --port 0`` in its own session, so its forked shard workers share its
process group: one ``SIGKILL`` to the group is a whole-deployment
crash, and the group is the set of processes whose memory is measured.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.shard.protocol import recv_frame, send_frame

from workloads import FSYNC_EVERY, SHARDS

#: How long a launch may take to print its listening line.
START_TIMEOUT_S = 60.0


def _group_members(pgid: int) -> list[int]:
    """Live pids in process group ``pgid`` (from ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] != b"Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return sorted(members)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process group over one store directory."""

    def __init__(
        self,
        root: Path,
        store: Path,
        scheme_file: Optional[Path],
        log: Path,
    ) -> None:
        self.root = root
        self.store = store
        self.scheme_file = scheme_file
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> float:
        """Launch and wait for the listening line; returns the seconds
        from launch to listening."""
        command = [sys.executable, "-m", "repro", "serve"]
        if self.scheme_file is not None:
            command.append(str(self.scheme_file))
        command += [
            "--store", str(self.store),
            "--shards", str(SHARDS),
            "--fsync-every", str(FSYNC_EVERY),
            "--port", "0",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # Load bytecode compiled once per checkout, as an installed
        # server would, rather than recompiling every module on every
        # start; the cache lives beside the run files, not in src/.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.root / ".perfbench_run" / "pycache")
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        self.port = self._await_listening()
        return time.perf_counter() - started

    def _await_listening(self) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"{"):
                    return int(json.loads(line)["listening"][1])
        self.kill()
        raise RuntimeError(
            f"repro serve did not start listening; see {self.log}"
        )

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is gone."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap(pgid)

    def stop(self) -> None:
        """A clean shutdown (SIGTERM lets the router stop its workers);
        falls back to :meth:`kill`."""
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def _reap(self, pgid: int) -> None:
        assert self.proc is not None
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None
        deadline = time.monotonic() + 20
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)

    # -- measurement --------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its workers."""
        assert self.proc is not None
        members = _group_members(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in members) / 1024.0

    def store_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.store.rglob("*")
            if path.is_file()
        )

    # -- one-off requests ---------------------------------------------------------
    def connect(self) -> "Connection":
        return Connection(self.port)


class Connection:
    """A blocking frame connection for set-up and inspection requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)

    def request(self, payload: Mapping[str, Any]) -> Any:
        send_frame(self.sock, dict(payload))
        response = recv_frame(self.sock)
        if response is None:
            raise RuntimeError("server closed the connection")
        return response

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()
