"""Child process of the benchmark; the runner starts one per round.

    child.py batch WORKLOAD SEED [SPANS_PATH]
        Build the seeded inputs (set-up), print {"ready": true}, wait for a
        line on stdin, run every op once, check it, and print one JSON line
        with per-op times, verdicts and digests, and the reference loop's
        pass times (see speed.py): for the set-up before the first op, and
        after each op.  With SPANS_PATH the layers are traced over set-up
        and ops and the spans are written there.
    child.py cli-inputs SEED DIRECTORY
        Write the cli workload's problem files and commands.json.
    child.py cli-traced SPANS_PATH -- ARGV...
        Run one lefscalc command in this process under the tracer and print
        its exit code, output and per-layer summary as one JSON line.

The runner puts src/ and bench/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def run_batch(workload: str, seed: int, spans_path: str | None) -> None:
    started = time.perf_counter()
    import speed
    import workloads  # imports lefscalc, which is part of set-up

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.BATCH_WORKLOADS[workload](seed)
    setup = time.perf_counter() - started
    _emit({"ready": True})
    sys.stdin.readline()
    results = []
    wall = 0.0
    loops = speed.loop_after(setup)
    for op in ops:
        error = None
        value = None
        start = time.perf_counter()
        try:
            value = op.compute()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        wall += elapsed
        loops.extend(speed.loop_after(elapsed))
        if error is None:
            try:
                op.check(value)
            except AssertionError as exc:
                error = str(exc)
        results.append({
            "name": op.name,
            "seconds": elapsed,
            "error": error,
            "digest": None if value is None else workloads.digest(value),
        })
    payload = {"ops": results, "wall_s": wall, "loop_s": loops}
    if tracer is not None:
        payload["layers"] = tracer.summary()
        tracer.uninstall()
        tracer.write_spans(spans_path)
    _emit(payload)


def run_cli_traced(spans_path: str, argv: list) -> None:
    import lefscalc.cli

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lefscalc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    layers = tracer.summary()
    tracer.uninstall()
    tracer.write_spans(spans_path)
    _emit({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "layers": layers})


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "batch":
        run_batch(argv[1], int(argv[2]), argv[3] if len(argv) > 3 else None)
    elif mode == "cli-inputs":
        import cli_load

        cli_load.write_inputs(int(argv[1]), argv[2])
    elif mode == "cli-traced":
        run_cli_traced(argv[1], argv[argv.index("--") + 1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
