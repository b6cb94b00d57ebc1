"""Benchmark worker: set up once, then run each case in a fresh fork.

    python3 perfbench/worker.py WORKLOAD

The worker caps its address space, imports krlab from the src/ directory
next to perfbench/ and nowhere else, loads the workload's references and
prints {"ready": true} with the time its speed probe took during set-up
and the slowdown it read.  It then reads lines "INDEX TRACE PROBE" from
standard input.  For each it forks a child that runs that case, under the
layer tracer when TRACE is 1 and timed against the speed probe when PROBE
is 1, so every case starts from the same just-set-up state whatever ran
before it.  It prints one JSON line per case: seconds, and when probed the
seconds at reference speed and the slowdown; the reason the case failed or
null; the child's peak RSS and, when traced, the raw span and count totals.
It exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import sys
from array import array
from pathlib import Path
from time import perf_counter

from corpus import WORKLOADS, check, load_refs

ROOT = Path(__file__).resolve().parents[1]
MEMORY_CEILING = 2 * 2**30  # bytes of address space, inherited by every case
PROBE_CELLS = 1 << 17  # floats the probe reads from at random: 1 MiB
PROBE_STEPS = 4000
PROBE_EVERY_S = 0.05  # CPU seconds of the case between probe samples
PROBE_REF_S = 0.001  # a sample's seconds at reference speed: near its median in a case, 2-vCPU Xeon VM


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so that CliRunner does not catch it."""


def _alarm(signum, frame):
    raise CaseTimeout


def import_krlab():
    """krlab's cli and skein modules, imported from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from krlab import cli, skein

    if Path(cli.__file__).resolve().parent != src / "krlab":
        raise ImportError(f"krlab was imported from {cli.__file__}, not from {src}")
    return cli, skein


class SpeedProbe:
    """A fixed piece of work, timed again and again while a case runs.

    The host's CPU speed drifts, per CPU, by up to 1.8x over spells of
    seconds to minutes, so a case's wall time measures the host as much as
    the program.  The probe (random reads from a 1 MiB array and integer
    arithmetic, in pure Python like krlab) runs in the case process every
    PROBE_EVERY_S of the case's CPU time, from a SIGPROF handler, and once
    right after the case.  Its mean slowdown over PROBE_REF_S is the
    slowdown of the CPU the case ran on, during the case; the case's
    seconds divided by it are its seconds at the reference speed.  The
    probe's own time is not counted.  Every timed sample follows a stretch
    of krlab's work, so all of them start with the probe's data out of
    cache; an untimed sample before the case takes the copy-on-write page
    faults of the freshly forked process.
    """

    def __init__(self):
        rng = random.Random(0)
        self.values = array("d", range(PROBE_CELLS))
        self.reads = [rng.randrange(PROBE_CELLS) for _ in range(PROBE_STEPS)]
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        t0 = perf_counter()
        values, acc = self.values, 0.0
        for i in self.reads:
            acc += values[i] * (i * i % 7)
        self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        self.sample()
        self.samples.clear()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    def inside_s(self) -> float:
        """Probe time between start() and stop(), which the case's time excludes."""
        return sum(self.samples[:-1])

    def slowdown(self) -> float:
        """The case's CPU speed relative to the reference: over 1 when slower."""
        return sum(self.samples) / len(self.samples) / PROBE_REF_S


def run_case(runner, cli, skein, case, refs, cap_s: float,
             probe: SpeedProbe | None = None) -> tuple[float, str | None]:
    """Seconds taken, without the probe's, and the reason the case failed, or None."""
    memo = getattr(skein, "_memo", None)
    if isinstance(memo, dict):
        memo.clear()
    signal.signal(signal.SIGALRM, _alarm)
    if probe is not None:
        probe.start()
    t0 = perf_counter()
    timed_out = False
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            result = runner.invoke(cli.main, case.argv())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        timed_out = True
    seconds = perf_counter() - t0
    if probe is not None:
        probe.stop()
        seconds -= probe.inside_s()
    if timed_out:
        return seconds, f"exceeded the {cap_s:g} s cap"
    if isinstance(result.exception, MemoryError):
        return seconds, "hit the memory ceiling"
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return seconds, f"raised {result.exception!r}"
    return seconds, check(case, result.exit_code, result.stdout, refs)


def _child(runner, cli, skein, workload, refs, idx: int, trace: bool,
           probe: SpeedProbe | None) -> dict:
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    seconds, reason = run_case(runner, cli, skein, workload.cases[idx], refs, workload.case_cap_s, probe)
    doc = {"seconds": seconds, "reason": reason}
    if probe is not None:
        doc["slowdown"] = probe.slowdown()
        doc["norm_seconds"] = seconds / doc["slowdown"]
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.state()
    return doc


def fork_case(runner, cli, skein, workload, refs, idx: int, trace: bool,
              probe: SpeedProbe | None = None) -> dict:
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            doc = _child(runner, cli, skein, workload, refs, idx, trace, probe)
            with os.fdopen(write_end, "w") as out:
                out.write(json.dumps(doc))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        data = inp.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        doc = {"seconds": 0.0, "reason": f"case process ended with wait status {status}"}
    else:
        doc = json.loads(data)
    doc["maxrss_kb"] = usage.ru_maxrss
    return doc


def main(argv: list[str]) -> int:
    [workload_name] = argv
    t0 = perf_counter()
    probe = SpeedProbe()  # set-up is timed against it too
    probe.start()
    t1 = perf_counter()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    cli, skein = import_krlab()
    from click.testing import CliRunner

    workload = WORKLOADS[workload_name]
    refs = load_refs(workload_name)
    runner = CliRunner()
    t2 = perf_counter()
    probe.stop()
    probe_s = (t1 - t0) + probe.inside_s() + (perf_counter() - t2)
    emit({"ready": True, "probe_s": probe_s, "slowdown": probe.slowdown()})
    for line in sys.stdin:
        idx, trace, probed = map(int, line.split())
        emit(fork_case(runner, cli, skein, workload, refs, idx, bool(trace), probe if probed else None))
    return 0


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
