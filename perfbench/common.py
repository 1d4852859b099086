"""Shared plumbing: child processes, import timing, request loop, statistics."""

from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
OUT = ROOT / "perfbench" / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed at each end of a run and every SETUP_EVERY
# seconds between rounds; setup_s is the median of all of them, so that it
# spans the run rather than one moment of the host
SETUP_IMPORTS = 3
SETUP_EVERY = 2.5
CHILD_TIMEOUT = 60.0
# round index of the untimed warm-up; a run never reaches it
WARMUP_ROUND = 2**31


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Completed:
    code: int
    out: str
    err: str
    seconds: float
    maxrss_mb: float


CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 20_000  # about a millisecond of pure Python
REPROBE_AFTER = 0.1  # seconds; requests closer together than this share one probe


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def settle() -> None:
    """Move this process, and the children it starts next, onto the CPU that runs a short spin fastest now.

    On a shared virtual machine, other tenants slow each CPU in turn, by up
    to half, for seconds at a time. One request in flight stays on one CPU
    either way.
    """
    if len(CPUS) < 2:
        return
    spins = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        spins[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(spins, key=spins.get)})


def run_child(argv: list[str], scratch: Path) -> Completed:
    """Run one child to completion; wall time spans spawn to reap.

    Output goes to files so that the child can be reaped with ``wait4``,
    which reports that child's own peak RSS.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # blocks without polling
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(
        code=proc.returncode,
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
        seconds=seconds,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def time_imports(
    scratch: Path, importtime: bool, warm: bool, times: int = SETUP_IMPORTS
) -> tuple[list[float], list[dict[str, float]]]:
    """Wall times of ``import kdqlab`` in fresh interpreters, plus ``-X importtime`` cumulatives."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import kdqlab"]
    if warm:
        run_child(argv, scratch)  # writes bytecode caches and warms the file cache
    walls, cumulative = [], []
    for _ in range(times):
        settle()
        done = run_child(argv, scratch)
        if done.code != 0:
            raise RuntimeError(f"import kdqlab failed: {done.err.strip()}")
        walls.append(done.seconds)
        cumulative.append({m.group(3): int(m.group(2)) * 1e-6 for m in _IMPORTTIME.finditer(done.err)})
    return walls, cumulative


class GateError(Exception):
    """A request's output failed its correctness gate."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Outcome:
    """One request: what it was, how long it took, whether its gate passed."""

    kind: str
    seconds: float
    ok: bool
    reason: str = ""
    known_defect: bool = False
    shots: int = 0
    built: bool = False  # the request built a named scenario
    zf: float = 0.0  # largest |z| of outcome frequencies against the closed form
    zm: float = 0.0  # largest |z| of conditional means against the closed form
    quad_err: float = 0.0  # largest |quadrature mean - closed-form mean|


def run_rounds(workload, execute, seconds: float, min_rounds: int, seed: int, exact: int | None, between=None) -> list[list]:
    """Closed loop, one request in flight, in rounds of the workload's mix.

    A round holds one request per slot of the mix. A slot keeps its shape
    (kind, size, format) from round to round and draws fresh seeded inputs in
    each; within a round the slots run in a seeded order, so that the repeats
    of a slot fall at different moments of the run. Rounds go on until
    ``seconds`` have passed and ``min_rounds`` ran. ``exact`` runs exactly
    that many requests instead (smoke tests). ``between``, if given, is
    called after each round. Returns each round's outcomes in slot order; a
    slot that did not run holds None.
    """
    rounds = []
    ran = 0
    settled = -math.inf
    deadline = time.perf_counter() + seconds
    for index in count():
        if exact is None and index >= min_rounds and time.perf_counter() >= deadline:
            break
        requests = workload.round(index)
        outcomes = [None] * len(requests)
        for slot in np.random.default_rng([seed, 9, index]).permutation(len(requests)):
            if exact is not None and ran >= exact:
                break
            if time.perf_counter() - settled >= REPROBE_AFTER:
                settle()
                settled = time.perf_counter()
            outcomes[slot] = execute(requests[slot])
            ran += 1
        rounds.append(outcomes)
        if exact is not None and ran >= exact:
            break
        if between is not None:
            between()
    return rounds


def best_of_rounds(rounds: list[list]) -> list[Outcome]:
    """Each slot's fastest repeat.

    The host's speed drifts by tens of percent over seconds to minutes, while
    a slot costs the same in every round; its fastest repeat is what the
    request costs when nothing else on the host gets in its way.
    """
    best = []
    for slot in zip(*rounds):
        ran = [o for o in slot if o is not None]
        if ran:
            best.append(min(ran, key=lambda o: o.seconds))
    return best


def flatten(rounds: list[list]) -> list[Outcome]:
    return [o for outcomes in rounds for o in outcomes if o is not None]


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def peak_rss_self_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
