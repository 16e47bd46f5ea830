"""Launch, measure and reap the real deployment: ``python -m repro serve``.

The server runs as a subprocess in its own session (= process group),
fsync on, state under the run directory inside the checkout.  Whatever
happens — exception, timeout, Ctrl-C — :meth:`Server.stop` leaves no
edge, worker or resource-tracker process behind and the caller removes
the run directory.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.net import ServiceClient

from workloads import Inputs, Workload

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
#: everything a run writes (state, sockets, traces) goes under here
OUT_DIR = Path(__file__).resolve().parent / "out"
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 20.0
#: longest ``TMPDIR`` that still leaves room for the supervisor's
#: ``/repro-net-xxxxxxxx/worker-N.sock`` (33 bytes) under the 107
#: usable bytes of a unix socket address
_MAX_TMPDIR_LEN = 72


def fresh_run_dir() -> Path:
    """A new, empty directory for one run's state; the caller removes
    it when the run ends."""
    OUT_DIR.mkdir(exist_ok=True)
    index = 0
    while True:
        run_dir = OUT_DIR / f"r{os.getpid()}-{index}"
        try:
            run_dir.mkdir()
            return run_dir
        except FileExistsError:
            index += 1


def _group_members(pgid: int) -> list[int]:
    """Pids of the live processes whose process group is ``pgid``.

    Zombies are left out: they have ended, and the orphaned workers'
    are reaped by pid 1 in its own time, not ours."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # fields after the parenthesised command name: state ppid pgrp
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class Server:
    """One ``repro serve`` deployment for one workload."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 run_dir: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.run_dir = run_dir
        self.process: "subprocess.Popen[str] | None" = None
        self.port = 0
        # the supervisor keeps its worker sockets in a tempdir; it is
        # put inside the run directory unless that would overflow a
        # unix socket address
        self._tmp_dir = run_dir / "t"
        self._tmp_inside = len(str(self._tmp_dir)) <= _MAX_TMPDIR_LEN

    def _command(self) -> list[str]:
        """The ``repro serve`` command line, after writing the files it
        names (the config's DTDs, patterns and seed documents)."""
        config = self.inputs.config
        files = self.run_dir / "inputs"
        files.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "repro", "serve"]
        for flag, suffix, texts in (("--dtd", "dtd", config.dtds),
                                    ("--pattern", "xupdate",
                                     config.patterns),
                                    ("--document", "xml",
                                     config.documents)):
            for index, text in enumerate(texts):
                path = files / f"{flag[2:]}{index}.{suffix}"
                path.write_text(text, encoding="utf-8")
                command += [flag, str(path)]
        for constraint in config.constraints:
            command += ["--constraint", constraint]
        command += ["--state-dir", str(self.run_dir / "state"),
                    "--workers", str(self.workload.workers),
                    "--port", "0",
                    "--snapshot-interval",
                    str(config.snapshot_interval)]
        return command

    def _environment(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        if self._tmp_inside:
            self._tmp_dir.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(self._tmp_dir)
        return env

    def start(self) -> None:
        """Spawn the server and block until its ready line."""
        command = self._command()
        with open(self.run_dir / "server.err", "w") as errors:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=errors,
                text=True, env=self._environment(),
                start_new_session=True)
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([stdout], [], [],
                                        max(0.0, remaining))
            line = stdout.readline() if ready else ""
            if line.startswith("serving on http://"):
                address = line.split()[2]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if not line:  # EOF (server died) or timeout
                detail = (self.run_dir / "server.err").read_text()
                raise RuntimeError(
                    "repro serve did not become ready:\n" + detail)

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=120.0)

    def rss_mib(self) -> float:
        """Sum of peak resident set sizes over the server's process
        tree (edge, workers, multiprocessing resource tracker)."""
        assert self.process is not None
        total_kib = 0
        for pid in _group_members(self.process.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        """Kill the whole process group and wait until it is gone.

        Everything the deployment wrote lives under the run directory,
        which the caller removes, so nothing needs a graceful exit —
        except a socket tempdir that had to stay outside: then the
        edge is asked (SIGINT) to drain and tidy up first."""
        process, self.process = self.process, None
        if process is None:
            return
        pgid = process.pid
        try:
            if not self._tmp_inside and process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while True:
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                process.poll()  # reap the edge if it just died
                if not _group_members(pgid) \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            if process.stdout is not None:
                process.stdout.close()
            process.wait()


def timed_setup(server: Server) -> float:
    """Launch → ready line → first successful touch of every uid.

    The touch is a ``/check``: it forces ``open_durable`` (parse the
    seed corpus, attach column stores, write and fsync the baseline
    snapshot) and proves the group starts consistent.
    """
    begin = time.perf_counter()
    server.start()
    with server.client() as client:
        for uid in server.workload.uids():
            status, body = client.check(uid)
            if status != 200 or body.get("violations") != []:
                raise RuntimeError(
                    f"first touch of {uid!r} failed: {status} {body}")
    return time.perf_counter() - begin
