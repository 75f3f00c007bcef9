"""Subprocess tests: ``frodo serve`` takes its whole process tree down.

Each test boots the real CLI in its own session, signals the main
process the way an operator or a supervisor would, and asserts that no
process of the server tree — main, pool workers, cluster shards and
their workers — is alive within :data:`GRACE` seconds.  Cluster shards
lead sessions of their own, so the tree is tracked by session id:
whatever a shard forks late still counts.

Cases: SIGINT to a server launched with SIGINT ignored (what ``&``
does in a non-interactive shell), SIGTERM, both on ``--cluster 2``, and
a SIGINT that lands while the cluster is still spawning its shards.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Seconds the whole tree gets to disappear after the signal.
GRACE = 10.0

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="needs /proc")


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(
            b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _live_in_sessions(sessions: set[int]) -> list[int]:
    """Live (non-zombie) processes whose session id is in ``sessions``."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat(int(entry.name))
        # fields[0] is the state, fields[3] the session id.
        if fields and fields[0] != "Z" and int(fields[3]) in sessions:
            live.append(int(entry.name))
    return live


def _shard_sessions(main: int) -> set[int]:
    """Cluster shards spawned by ``main``; each leads its own session."""
    return {int(p.name) for p in Path("/proc").iterdir()
            if p.name.isdigit() and "--shard-id" in _cmdline(int(p.name))
            and _is_descendant(int(p.name), main)}


def _is_descendant(pid: int, root: int) -> bool:
    while pid > 1:
        if pid == root:
            return True
        fields = _stat(pid)
        if fields is None:
            return False
        pid = int(fields[1])  # parent pid
    return False


class Server:
    """One ``frodo serve`` subprocess in its own session."""

    def __init__(self, tmp_path: Path, *args: str,
                 ignore_sigint: bool = False):
        def preexec() -> None:
            if ignore_sigint:
                signal.signal(signal.SIGINT, signal.SIG_IGN)

        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
               *args]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
            start_new_session=True, preexec_fn=preexec)
        self.lines: list[str] = []
        #: Every session seen so far: shards outlive a dead main process.
        self.tracked = {self.proc.pid}
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line)

    def wait_for(self, text: str, count: int = 1,
                 timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if sum(text in line for line in self.lines) >= count:
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        self.kill()
        pytest.fail(f"no {text!r} from the server:\n{''.join(self.lines)}")

    def sessions(self) -> set[int]:
        self.tracked |= _shard_sessions(self.proc.pid)
        return set(self.tracked)

    def signal_and_wait(self, sig: int, sessions: set[int]) -> list[int]:
        """Send ``sig`` to the main process; return the survivors after
        :data:`GRACE` seconds (empty as soon as the tree is gone)."""
        self.proc.send_signal(sig)
        deadline = time.monotonic() + GRACE
        while True:
            self.proc.poll()  # reap the main process itself
            survivors = _live_in_sessions(sessions)
            if not survivors or time.monotonic() > deadline:
                return survivors
            time.sleep(0.05)

    def kill(self) -> None:
        for sid in self.sessions():
            try:
                os.killpg(sid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stdout.close()


@pytest.fixture
def servers():
    started: list[Server] = []
    yield started
    for server in started:
        server.kill()  # only matters when a test fails


def _assert_tree_stops(server: Server, sig: int, min_processes: int) -> None:
    sessions = server.sessions()
    tree = _live_in_sessions(sessions)
    assert len(tree) >= min_processes, (tree, "".join(server.lines))
    survivors = server.signal_and_wait(sig, sessions)
    assert not survivors, (
        f"alive {GRACE:g}s after {signal.Signals(sig).name}: "
        f"{[(pid, _cmdline(pid)) for pid in survivors]}\n"
        + "".join(server.lines))


def test_sigint_stops_server_launched_with_sigint_ignored(tmp_path,
                                                         servers):
    server = Server(tmp_path, ignore_sigint=True)
    servers.append(server)
    server.wait_for("listening on")
    _assert_tree_stops(server, signal.SIGINT, min_processes=2)


def test_sigterm_stops_server_and_its_workers(tmp_path, servers):
    server = Server(tmp_path)
    servers.append(server)
    server.wait_for("listening on")
    _assert_tree_stops(server, signal.SIGTERM, min_processes=2)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_cluster_stops_every_shard(tmp_path, servers, sig):
    server = Server(tmp_path, "--cluster", "2", "--cluster-root",
                    str(tmp_path / "cluster"), ignore_sigint=True)
    servers.append(server)
    server.wait_for("shard s1 on")
    _assert_tree_stops(server, sig, min_processes=5)


def test_cluster_sigint_while_spawning_shards(tmp_path, servers):
    """A SIGINT that lands while the second shard boots (the first has
    announced its port, the router is not up yet) must still tear down
    every shard spawned so far."""
    server = Server(tmp_path, "--cluster", "2", "--cluster-root",
                    str(tmp_path / "cluster"))
    servers.append(server)
    deadline = time.monotonic() + 60.0
    while len(_shard_sessions(server.proc.pid)) < 2:
        assert time.monotonic() < deadline, "".join(server.lines)
        assert server.proc.poll() is None, "".join(server.lines)
        time.sleep(0.01)
    assert not any("router listening" in line for line in server.lines)
    _assert_tree_stops(server, signal.SIGINT, min_processes=3)
