"""Shared helpers: checkout paths, child processes, percentiles, hashing, RSS."""

import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root: the directory holding ``prodbench/`` and ``src/``
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST_PATH = Path(__file__).resolve().parent / "MANIFEST.json"

#: working space for stores, logs and child reports; removed after a run
TMP_PARENT = ROOT / ".prodbench_tmp"

#: a tail percentile is reported only when at least this many samples
#: lie beyond it
MIN_BEYOND = 10

#: how long a child task or a server shutdown may take before it is killed
CHILD_TIMEOUT_S = 170.0
STOP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The benchmark could not run or a correctness check failed."""


def require_source() -> None:
    """Refuse to run without the program's source in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run the "
                         f"benchmark from the root of a full checkout")


def load_manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST_PATH.read_text())


def child_env(store: Optional[Path] = None) -> Dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    ``src`` and root on the path, and the result store pointed at a
    temporary directory so ``results/.sweep-cache`` is never touched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.pop("PYTHONSTARTUP", None)
    if store is not None:
        env["REPRO_SWEEP_CACHE"] = str(store)
    return env


class RunDir:
    """A per-run temporary directory inside the checkout."""

    def __init__(self) -> None:
        TMP_PARENT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                          dir=TMP_PARENT))
        self._n = 0

    def new(self, label: str) -> Path:
        self._n += 1
        return self.path / f"{self._n:03d}-{label}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()  # only succeeds when no other run is active
        except OSError:
            pass


def _log_tail(path: Path, lines: int = 30) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def stop_process(proc: subprocess.Popen, timeout: float = STOP_TIMEOUT_S) -> None:
    """SIGTERM, wait, then SIGKILL: the process has ended on return."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def run_child(task: str, args: Dict[str, Any], workdir: RunDir,
              store: Optional[Path] = None) -> Tuple[Dict[str, Any], float]:
    """Run ``python -m prodbench.child <task>`` in a fresh process.

    Returns ``(report, launch_monotonic)``: the JSON the child wrote and
    the ``time.monotonic()`` reading taken just before launch (the
    clock is system-wide, so the child's own readings compare to it).
    """
    work = workdir.new(task)
    work.mkdir()
    args_path, out_path, log_path = work / "args.json", work / "out.json", work / "log.txt"
    args_path.write_text(json.dumps(args))
    with open(log_path, "wb") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "prodbench.child", task, str(args_path),
             str(out_path)],
            cwd=ROOT, env=child_env(store), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_process(proc, 5.0)
            raise BenchError(f"child task {task} timed out") from None
    if code != 0 or not out_path.exists():
        raise BenchError(f"child task {task} failed (exit {code}):\n{_log_tail(log_path)}")
    return json.loads(out_path.read_text()), t_launch


# -- statistics -------------------------------------------------------------------


def supports(n: int, pct: float) -> bool:
    """True when ``n`` samples leave at least MIN_BEYOND beyond ``pct``."""
    return n * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9


def highest_supported(n: int, ladder: Sequence[float] = (99.9, 99.0, 95.0, 90.0,
                                                          75.0, 50.0),
                      ) -> Optional[float]:
    """The highest percentile of ``ladder`` that ``n`` samples support."""
    for pct in ladder:
        if supports(n, pct):
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses tails the sample cannot support.

    The median is always allowed; any higher percentile needs at least
    MIN_BEYOND samples beyond it.
    """
    n = len(values)
    if n == 0:
        raise BenchError("percentile of an empty sample")
    if pct > 50.0 and not supports(n, pct):
        raise BenchError(f"p{pct:g} needs {math.ceil(MIN_BEYOND / (1 - pct / 100))} "
                         f"samples for {MIN_BEYOND} beyond it, have {n}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * n / 100.0))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# -- hashing ----------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def results_hash(results: Any) -> str:
    """sha256 of simulated results in canonical JSON (first 16 hex digits)."""
    return hashlib.sha256(canonical_json(results).encode()).hexdigest()[:16]


# -- memory -----------------------------------------------------------------------


def _status_kib(pid: Any, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_kib(pid: Any = "self") -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    return _status_kib(pid, "VmHWM")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the server's pool workers)."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    try:
        return [int(p) for p in path.read_text().split()]
    except OSError:
        pass
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def tree_peak_rss_kib(pid: int) -> int:
    """Peak RSS of ``pid`` plus that of each of its live children."""
    return peak_rss_kib(pid) + sum(peak_rss_kib(c) for c in child_pids(pid))
