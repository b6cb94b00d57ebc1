"""krlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs every case of the workload once, in an order fixed by the seed,
one case at a time (a closed loop with one client).  The run starts one
fresh, single-threaded worker process; it sets up once and runs each case
in a fork of its set-up state, so that a case costs what one `krlab`
invocation costs whatever ran before it.  With --trace 0 the run makes
S // pass_s passes (at least one), pass_s being the workload's pass time
when the benchmark was defined.  The pass count thus depends only on S, so
two commits measured with the same S do the same work and get the same
number of samples per case.  Each case is timed against the worker's
speed probe, and the end-to-end times are seconds at the probe's reference
speed (see SpeedProbe in worker.py).  Set-up is timed at reference speed
too, in the run's worker and in extra workers that only set up, before and
after the passes.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead.  Every output is checked
against its committed reference.  The last line of standard output is the
result; the line before it gives failures and detail.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

from corpus import WORKLOADS, Workload, pass_order
from layers import merge, report

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9  # set-ups timed per untraced run: the run's worker, and extra ones before and after
SETUP_CAP_S = 60.0
CASE_GRACE_S = 15.0  # beyond the worker's own case cap, before it is killed
RUN_CAP_S = 165.0  # no case starts later; the run ends well within 180 s


class SetupError(RuntimeError):
    pass


@dataclass
class Pass:
    seconds: dict[int, float] = field(default_factory=dict)
    norm_seconds: dict[int, float] = field(default_factory=dict)  # at reference speed, when probed
    slowdowns: list[float] = field(default_factory=list)
    reasons: dict[int, str] = field(default_factory=dict)
    maxrss_kb: int = 0
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def norm_s(self) -> float:
        return sum(self.norm_seconds.values())


class _Lines:
    """JSON lines from a worker's stdout, each awaited up to a deadline."""

    def __init__(self, proc: subprocess.Popen):
        self.fd = proc.stdout.fileno()
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd, selectors.EVENT_READ)

    def next(self, deadline: float) -> dict | None:
        """The next line, or None at end of output or past the deadline."""
        while b"\n" not in self.buf:
            left = deadline - monotonic()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        self.sel.close()


class Worker:
    """One worker process for the run, set up once; each case it runs is
    forked from that set-up state."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
        t0 = monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload.name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, start_new_session=True,
        )
        self.lines = _Lines(self.proc)
        ready = self.lines.next(t0 + SETUP_CAP_S)
        if not ready or not ready.get("ready"):
            self.close()
            raise SetupError(f"worker for {workload.name} did not set up")
        self.setup_wall_s = monotonic() - t0
        self.setup_s = (self.setup_wall_s - ready["probe_s"]) / ready["slowdown"]  # at reference speed
        self.dead: str | None = None

    def run(self, idx: int, trace: bool, probe: bool, deadline: float) -> dict:
        if self.dead is None:
            try:
                self.proc.stdin.write(f"{idx} {int(trace)} {int(probe)}\n".encode())
                self.proc.stdin.flush()
            except BrokenPipeError:
                pass  # the worker has died; the read below sees end of output
            doc = self.lines.next(min(monotonic() + self.workload.case_cap_s + CASE_GRACE_S, deadline))
            if doc is not None:
                return doc
            if self.proc.poll() is None:
                self.dead = "worker killed past its time cap"
            else:
                self.dead = f"worker died with code {self.proc.returncode}"
            self._kill_group()
        return {"seconds": 0.0, "reason": self.dead, "maxrss_kb": 0}

    def close(self) -> None:
        """End the worker, and kill its process group if it does not end."""
        self.lines.close()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=CASE_GRACE_S)
        except subprocess.TimeoutExpired:
            self._kill_group()
            self.proc.wait()
        self.proc.stdout.close()

    def _kill_group(self) -> None:
        """Kill the worker and any case process it left behind."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_pass(worker: Worker, order: list[int], run_end: float,
             modes: tuple[bool, ...] = (False,), probe: bool = False) -> list[Pass]:
    """One pass per trace mode; the modes alternate case by case, so that
    both see the machine in the same state.  With probe, each case is also
    timed at reference speed."""
    outs = [Pass() for _ in modes]
    deadline = min(monotonic() + worker.workload.pass_cap_s * len(modes), run_end)
    for idx in order:
        for trace, out in zip(modes, outs):
            if monotonic() < deadline:
                doc = worker.run(idx, trace, probe, deadline)
            else:
                doc = {"seconds": 0.0, "reason": "pass over its time cap", "maxrss_kb": 0}
            out.seconds[idx] = doc["seconds"]
            if probe:
                out.norm_seconds[idx] = doc.get("norm_seconds", 0.0)
                if "slowdown" in doc:
                    out.slowdowns.append(doc["slowdown"])
            if doc["reason"]:
                out.reasons[idx] = doc["reason"]
            out.maxrss_kb = max(out.maxrss_kb, doc["maxrss_kb"])
            if "trace" in doc:
                out.traces.append(doc["trace"])
    return outs


def case_medians(workload: Workload, passes: list[Pass], key: str = "norm_seconds") -> list[float]:
    return [statistics.median(getattr(p, key)[i] for p in passes) for i in range(len(workload.cases))]


def end_to_end(workload: Workload, passes: list[Pass], setups: list[float]) -> dict:
    per_case = case_medians(workload, passes)
    values = {
        "pass_norm_s": (statistics.median(p.norm_s for p in passes), "s"),
        "case_p50_norm_s": (statistics.median(per_case), "s"),
        "case_p90_norm_s": (statistics.quantiles(per_case, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (statistics.median(p.maxrss_kb for p in passes) / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def setup_only(workload: Workload, seed: int, count: int) -> list[Worker]:
    """Workers that only set up, for their set-up times."""
    workers = []
    for _ in range(count):
        workers.append(Worker(workload, seed))
        workers[-1].close()
    return workers


def measure(workload: Workload, order: list[int], seed: int, seconds: float):
    run_end = monotonic() + RUN_CAP_S
    timed = setup_only(workload, seed, SETUP_SAMPLES // 2)
    worker = Worker(workload, seed)
    timed.append(worker)
    passes: list[Pass] = []
    try:
        for _ in range(max(1, int(seconds // workload.pass_s))):
            passes += run_pass(worker, order, run_end, probe=True)
            if passes[-1].reasons:
                break
    finally:
        worker.close()
    timed += setup_only(workload, seed, SETUP_SAMPLES // 2)
    setups = [w.setup_s for w in timed]
    slowdowns = [x for p in passes for x in p.slowdowns]
    idents = [c.ident for c in workload.cases]
    detail = {
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_norm_s": [p.norm_s for p in passes],
        "case_slowdown": {
            "min": min(slowdowns), "median": statistics.median(slowdowns), "max": max(slowdowns),
        } if slowdowns else {},
        "setup_s": setups,
        "setup_wall_s": [w.setup_wall_s for w in timed],
        "case_norm_s": dict(zip(idents, case_medians(workload, passes))),
        "case_wall_s": dict(zip(idents, case_medians(workload, passes, "seconds"))),
    }
    return end_to_end(workload, passes, setups), passes, detail


def measure_layers(workload: Workload, order: list[int], seed: int):
    run_end = monotonic() + RUN_CAP_S
    worker = Worker(workload, seed)
    try:
        plain, traced = run_pass(worker, order, run_end, (False, True))
    finally:
        worker.close()
    layers = report(merge(traced.traces), traced.wall_s)
    metrics = dict(layers["metrics"])
    overhead = traced.wall_s / plain.wall_s - 1 if plain.wall_s else 0.0
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    detail = {
        "absent": layers["absent"],
        "missing_hooks": layers["missing_hooks"],
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
    }
    return metrics, [plain, traced], detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    order = pass_order(workload, args.seed)
    try:
        if args.trace:
            metrics, passes, detail = measure_layers(workload, order, args.seed)
        else:
            metrics, passes, detail = measure(workload, order, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [
        {"case": workload.cases[i].ident, "reason": r} for p in passes for i, r in sorted(p.reasons.items())
    ]
    print(json.dumps(dict(detail, failures=failures)))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(p.seconds) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
