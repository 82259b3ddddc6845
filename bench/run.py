#!/usr/bin/env python3
"""The lefscalc benchmark: one command, four workloads, exact checks.

    python3 bench/run.py --workload {trace,locus,euler,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it uses the lefscalc sources in src/.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; see README.md.

A batch workload (trace, locus, euler) runs in rounds.  Each round is a
fresh child process that imports lefscalc, builds the seeded inputs (its
set-up), runs every op once and checks it.  A cli round is one cycle of
lefscalc commands, one fresh process each.  Rounds repeat while another
one fits in --seconds, and at least a minimum count.  Children run one at
a time.
With --trace 1 every other round runs under the layer tracer, and the
per-layer metrics are medians over those rounds.

Every time of the end-to-end metrics is scaled to a fixed host speed,
measured with a reference loop next to the work (see speed.py).  The
whole run is pinned to one CPU, so the loop and the work share it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("trace", "locus", "euler", "cli")
MIN_ROUNDS = {"trace": 3, "locus": 3, "euler": 3, "cli": 5}
MIN_TRACED_ROUNDS = 2
IMPORT_SAMPLES = 5          # fresh-process imports timed for the cli set-up
TAIL_PERCENTILE = 80        # op_tail_ms
CHILD_TIMEOUT_S = 90.0      # a child that takes longer fails its ops
LAST_START_S = 120.0        # no round starts after this
RUN_LIMIT_S = 170.0         # every child is stopped by then
# Hash randomisation changes set order inside lefscalc and with it the cost
# of a round by up to 40 %; one fixed hash seed keeps runs comparable.
ENV_OVERRIDES = {"PYTHONHASHSEED": "0"}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_frac"):
        return "frac"
    if name.startswith(("io.bytes", "reports.bytes")):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(ENV_OVERRIDES)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Child:
    """One child process: stdout read with deadlines, stderr to a file,
    reaped with wait4 so its peak RSS is known."""

    def __init__(self, argv: list, deadline: float):
        self.deadline = deadline
        self.err = tempfile.TemporaryFile(dir=OUT)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            env=child_env(), cwd=ROOT,
        )
        self.buffer = b""
        self.maxrss_kb = 0

    def _fill(self) -> bool:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("child timed out")
        ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
        if not ready:
            raise TimeoutError("child timed out")
        chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
        self.buffer += chunk
        return bool(chunk)

    def line(self) -> bytes:
        while b"\n" not in self.buffer:
            if not self._fill():
                raise EOFError("child closed its output")
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode("utf-8"))
        self.proc.stdin.close()

    def read_all(self) -> bytes:
        self.proc.stdin.close()
        while self._fill():
            pass
        data, self.buffer = self.buffer, b""
        return data

    def finish(self) -> int:
        """Reap the child; kill it first if it outlives the deadline."""
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()

    def stderr_text(self) -> str:
        self.err.seek(0)
        text = self.err.read().decode("utf-8", "replace")
        self.err.close()
        return text


class Run:
    """Collects rounds, failures and samples of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.monotonic()
        # times scaled to the reference speed (see speed.py)
        self.walls = {False: [], True: []}       # per round: sum of op times
        self.op_times = {False: {}, True: {}}    # op name -> seconds per round
        self.setups = []
        self.latencies = []     # samples of op_p50_ms and op_tail_ms
        self.raw_walls = []     # untraced round walls as measured
        self.slowdowns = []     # per untraced round: mean loop time / REFERENCE_S
        self.round_s = 0.0      # the longest round so far, spawn to result
        self.maxrss_kb = 0
        self.attempted = 0
        self.failures = []
        self.layers = []
        self.digests = {}          # op name -> first digest seen
        refs = {}
        if os.path.exists(REFERENCES):
            with open(REFERENCES, encoding="utf-8") as handle:
                refs = json.load(handle).get(workload, {}).get(str(seed), {})
        self.references = refs

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def deadline(self) -> float:
        return min(time.monotonic() + CHILD_TIMEOUT_S, self.start + RUN_LIMIT_S)

    def fail(self, name: str, why: str) -> None:
        self.failures.append(f"{name}: {why}")

    def record(self, name: str, digest: str | None, error: str | None, traced: bool) -> None:
        """Count one op, and record why it failed if it did."""
        self.attempted += 1
        if error:
            self.fail(name, error)
            return
        first = self.digests.setdefault(name, digest)
        if digest != first:
            kind = "traced" if traced else "repeated"
            self.fail(name, f"{kind} output digest {digest} != {first}")
        elif name in self.references and digest != self.references[name]:
            self.fail(name, f"digest {digest} != reference {self.references[name]}")

    def want_more(self) -> bool:
        if self.elapsed() > LAST_START_S:
            return False
        enough = len(self.walls[False]) >= MIN_ROUNDS[self.workload]
        if self.trace:
            enough = len(self.walls[False]) >= MIN_TRACED_ROUNDS and \
                len(self.walls[True]) >= MIN_TRACED_ROUNDS
        # start a round only if it ends about in time
        return not enough or self.elapsed() + self.round_s / 2 < self.seconds

    def next_traced(self) -> bool:
        return self.trace and len(self.walls[True]) < len(self.walls[False])

    def add_round(self, traced: bool, times: dict, started: float, scale: float) -> None:
        """Record one round's measured op times; `scale` turns them into
        times at the reference speed."""
        self.round_s = max(self.round_s, time.monotonic() - started)
        self.walls[traced].append(sum(times.values()) * scale)
        for name, seconds in times.items():
            self.op_times[traced].setdefault(name, []).append(seconds * scale)
        if not traced:
            self.raw_walls.append(sum(times.values()))
            self.slowdowns.append(1.0 / scale)


# ---------------------------------------------------------------------------
# batch workloads


class RoundFailed(Exception):
    """A batch child timed out, crashed or printed no result."""


def batch_round(run: Run, traced: bool, expected_ops: int) -> None:
    started = time.monotonic()
    argv = [sys.executable, CHILD, "batch", run.workload, str(run.seed)]
    if traced:
        argv.append(os.path.join(OUT, f"spans-{run.workload}-{run.seed}.json"))
    child = Child(argv, run.deadline())
    try:
        ready = json.loads(child.line())
        setup = time.perf_counter() - child.started
        if not ready.get("ready"):
            raise ValueError("child did not report ready")
        child.send("go\n")
        result = json.loads(child.line())
        child.finish()
    except (TimeoutError, EOFError, ValueError) as exc:
        child.kill()
        detail = f"{type(exc).__name__}: {exc} {child.stderr_text()[-400:]}"
        for _ in range(max(1, expected_ops)):
            run.attempted += 1
            run.fail(f"round {len(run.walls[False]) + len(run.walls[True])}", detail)
        raise RoundFailed(detail) from exc
    child.stderr_text()
    run.maxrss_kb = max(run.maxrss_kb, child.maxrss_kb)
    for op in result["ops"]:
        run.record(op["name"], op["digest"], op["error"], traced)
    scale = speed.scale(result["loop_s"])
    run.add_round(traced, {op["name"]: op["seconds"] for op in result["ops"]}, started, scale)
    if traced:
        run.layers.append(result["layers"])
    else:
        run.setups.append(setup * scale)
        # for the latency metrics a batch round is one op: a fresh process
        # that imports lefscalc, builds its inputs and runs them
        run.latencies.append((setup + result["wall_s"]) * scale)


def run_batch(run: Run) -> None:
    expected_ops = 0
    failed_rounds = 0
    while run.want_more():
        traced = run.next_traced()
        try:
            batch_round(run, traced, expected_ops)
        except RoundFailed:
            failed_rounds += 1
            if failed_rounds >= 2:
                return
            continue
        expected_ops = max(expected_ops, len(run.digests))


# ---------------------------------------------------------------------------
# cli workload


def time_imports(run: Run) -> None:
    for _ in range(IMPORT_SAMPLES):
        before = speed.loop_after(0.0)
        child = Child([sys.executable, "-c", "import lefscalc.cli"], run.deadline())
        try:
            child.read_all()
        finally:
            child.finish()
        elapsed = time.perf_counter() - child.started
        if child.proc.returncode != 0:
            raise RuntimeError(f"import lefscalc.cli failed: {child.stderr_text()[-400:]}")
        child.stderr_text()
        run.setups.append(elapsed * speed.scale(before + speed.loop_after(elapsed)))


def cli_command(run: Run, command: dict, traced: bool, layers: list) -> float:
    """Run one command in a fresh process and check it; return its wall
    time.  A traced command appends its per-layer summary to `layers`."""
    if traced:
        spans = os.path.join(OUT, f"spans-cli-{command['name']}.json")
        argv = [sys.executable, CHILD, "cli-traced", spans, "--", *command["argv"]]
    else:
        argv = [sys.executable, "-m", "lefscalc.cli", *command["argv"]]
    child = Child(argv, run.deadline())
    try:
        raw = child.read_all()
        child.finish()
    except TimeoutError:
        child.kill()
        run.attempted += 1
        run.fail(command["name"], "timed out")
        return time.perf_counter() - child.started
    elapsed = time.perf_counter() - child.started
    stderr = child.stderr_text()
    run.maxrss_kb = max(run.maxrss_kb, child.maxrss_kb)
    text = raw.decode("utf-8", "replace")
    code = child.proc.returncode
    if traced:
        try:
            payload = json.loads(text.strip().splitlines()[-1])
            code, text, stderr = payload["exit"], payload["stdout"], payload["stderr"]
            layers.append(payload["layers"])
        except (ValueError, IndexError, KeyError) as exc:
            run.attempted += 1
            run.fail(command["name"], f"traced command gave no result: {exc} {stderr[-300:]}")
            return elapsed
    import cli_load

    error = None
    try:
        cli_load.check(command, code, text, stderr)
    except (AssertionError, ValueError) as exc:
        error = str(exc)
    run.record(command["name"], stdout_digest(text), error, traced)
    return elapsed


def cli_commands(run: Run) -> list:
    """Write the seeded problem files in a child; return the command cycle."""
    directory = os.path.join(OUT, f"cli-{run.seed}")
    child = Child([sys.executable, CHILD, "cli-inputs", str(run.seed), directory], run.deadline())
    child.read_all()
    if child.finish() != 0:
        raise RuntimeError(f"writing the cli inputs failed: {child.stderr_text()[-400:]}")
    child.stderr_text()
    with open(os.path.join(directory, "commands.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(run: Run) -> None:
    commands = cli_commands(run)
    time_imports(run)
    while run.want_more():
        traced = run.next_traced()
        started = time.monotonic()
        layers = []
        loops = speed.loop_after(0.0)
        times = {}
        for command in commands:
            times[command["name"]] = cli_command(run, command, traced, layers)
            loops.extend(speed.loop_after(times[command["name"]]))
        scale = speed.scale(loops)
        run.add_round(traced, times, started, scale)
        if not traced:
            run.latencies.extend(t * scale for t in times.values())
        if layers:
            run.layers.append({k: sum(layer[k] for layer in layers) for k in layers[0]})


# ---------------------------------------------------------------------------
# result


def end_to_end_metrics(run: Run) -> dict:
    ms = [x * 1000.0 for x in run.latencies]
    values = {
        "wall_s": statistics.median(run.walls[False]),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": run.maxrss_kb / 1024.0,
        "op_p50_ms": percentile(ms, 50),
        "op_tail_ms": percentile(ms, TAIL_PERCENTILE),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(run: Run) -> dict:
    from tracer import ratios

    layers = [ratios(layer) for layer in run.layers if layer]
    out = {}
    for name in sorted(layers[0]):
        value = statistics.median(layer[name] for layer in layers)
        out[name] = {"value": value, "unit": per_layer_unit(name)}
    overhead = statistics.median(run.walls[True]) / statistics.median(run.walls[False]) - 1.0
    out["bench.tracing_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return out


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where the reference
    loop runs too."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lefscalc", "__init__.py")):
        print(f"error: no lefscalc sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, HERE)
    pin_to_one_cpu()
    # The build step: byte-compile once so no timed child compiles sources.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run_cli(run) if args.workload == "cli" else run_batch(run)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not run.walls[False] or (run.trace and not run.walls[True]):
        print("error: no round completed", file=sys.stderr)
        for line in run.failures[:10]:
            print(f"  {line}", file=sys.stderr)
        return 1
    for line in run.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    rounds = len(run.walls[False]) + len(run.walls[True])
    print(f"{args.workload} seed {args.seed}: {rounds} rounds ({len(run.walls[True])} traced), "
          f"{len(run.op_times[False])} ops, op_tail_ms = p{TAIL_PERCENTILE} of {len(run.latencies)} samples, "
          f"{len(run.failures)} failures in {run.elapsed():.1f} s; "
          f"round walls as measured {' '.join(f'{x:.3f}' for x in run.raw_walls)}; "
          f"host slowdowns {' '.join(f'{x:.2f}' for x in run.slowdowns)}")
    metrics = per_layer_metrics(run) if run.trace else end_to_end_metrics(run)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
