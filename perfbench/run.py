"""Benchmark of refineflow: exported recipe files in, workflow diagrams out.

Run from the repository root:

    python3 perfbench/run.py --workload long-narrow --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

One process and one closed-loop caller: conversions run one at a time, no
threads, each an in-process ``refineflow.cli.run`` from a recipe file to
output files. Inputs come from ``--seed`` (see ``workloads.py``).

``--trace 0`` repeats untraced conversions of the workload's set for
``--seconds`` in all, takes each conversion's fastest repeat as its time
and prints the end-to-end metrics; memory (``tracemalloc``) and start-up time
(fresh interpreters) are measured in their own untimed passes, which
alternate with the timed stretches. ``--trace 1`` alternates untraced and
traced conversions for ``--seconds`` and prints the per-layer metrics, each
a mean per traced conversion; its spans are written to ``.perfbench_out/``.
Both modes run the correctness gate of ``gate.py``. The metric catalogue,
the layer map and the workloads' measured properties are in ``spec.json``.

The last line of standard output is the JSON result; the lines before it
are a readable report. Exit status is 1 when a conversion fails or an
output is wrong, 2 when the program cannot be loaded from ``src/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A run's timed conversions come in this many stretches, each followed by
# SETUP_LAUNCHES timed fresh-interpreter launches.
STRETCHES = 8
SETUP_LAUNCHES = 4


def load_program():
    """Import refineflow from this checkout's ``src``; exit 2 if it is absent."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    try:
        import refineflow
        import dotcheck  # noqa: F401  (the gate's DOT oracle)
    except ImportError as exc:
        print(f"perfbench: cannot load the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(refineflow.__file__).startswith(src + os.sep):
        print(f"perfbench: refineflow was loaded from {refineflow.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


class Runner:
    """Converts inputs, keeps each conversion key's first outputs, and counts
    attempts and failures. Every later conversion of a key must give the
    same bytes."""

    def __init__(self, work: str):
        from refineflow import cli

        self.cli = cli
        self.work = work
        self.outputs: dict[str, dict[str, bytes]] = {}
        self.conversions: dict[str, int] = {}
        self.failures: dict[str, str] = {}

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, reason)

    def record(self, key: str, status, outputs: dict[str, bytes], stderr: str) -> None:
        self.conversions[key] = self.conversions.get(key, 0) + 1
        if status != 0:
            last_line = (stderr.strip().splitlines() or [""])[-1]
            self.fail(key, f"exit status {status}: {last_line}")
            return
        first = self.outputs.setdefault(key, outputs)
        if outputs != first:
            self.fail(key, "repeated conversion gave different bytes")

    def convert(self, conversion, memory: bool = False) -> tuple[float, int]:
        """Run one conversion; returns (wall seconds, tracemalloc peak bytes)."""
        out_dir = os.path.join(self.work, "out", conversion.key)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        config = self.cli.RunConfig(
            input_path=conversion.recipe_path,
            output_path=os.path.join(out_dir, f"main.{conversion.format}"),
            model_kind=conversion.model,
            view=conversion.view,
            format=conversion.format,
            query=conversion.query,
        )
        stderr = io.StringIO()
        peak = 0
        if memory:
            tracemalloc.start()
        try:
            start = time.perf_counter()
            try:
                status = self.cli.run(config, stderr=stderr)
            except Exception:  # a crash is a failed conversion, not a crashed benchmark
                stderr.write(traceback.format_exc())
                status = "crash"
            elapsed = time.perf_counter() - start
        finally:
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        outputs = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as stream:
                outputs[name] = stream.read()
        self.record(conversion.key, status, outputs, stderr.getvalue())
        return elapsed, peak

    def attempted(self) -> int:
        return sum(self.conversions.values())

    def failed(self) -> int:
        return sum(self.conversions.get(key, 1) for key in self.failures)


def timed_pass(runner: Runner, conversions, seconds: float) -> list[tuple[str, float]]:
    """Cycle through the conversion set in whole passes until ``seconds`` are
    up; returns (conversion key, wall seconds) of every conversion."""
    samples = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index % len(conversions) or time.perf_counter() < deadline:
        conversion = conversions[index % len(conversions)]
        elapsed, _ = runner.convert(conversion)
        samples.append((conversion.key, elapsed))
        index += 1
    return samples


def traced_pass(runner: Runner, conversions, seconds: float, tracer) -> list[float]:
    """Convert each input untraced and traced, back to back, in whole passes
    for ``seconds``; returns traced minus untraced time of each pair. Which
    of the two goes first alternates."""
    differences = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index % len(conversions) or time.perf_counter() < deadline:
        conversion = conversions[index % len(conversions)]
        elapsed = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                elapsed[traced] = runner.convert(conversion)[0]
                continue
            root = len(tracer.spans)
            with tracer:
                elapsed[traced] = runner.convert(conversion)[0]
            tracer.spans[root][4]["files_written"] = len(runner.outputs.get(conversion.key, {}))
        differences.append(elapsed[True] - elapsed[False])
        index += 1
    return differences


def memory_pass(runner: Runner, conversions) -> int:
    """Largest tracemalloc peak over the conversions."""
    return max(runner.convert(c, memory=True)[1] for c in conversions)


class SetupTimer:
    """Fresh interpreters converting the empty recipe, one at a time.

    ``launch_block`` makes ``SETUP_LAUNCHES`` timed launches; it is called
    at several points of a run. Sample ``i`` of the run is the fastest of the
    blocks' ``i``-th launches, and ``setup_s`` is the median of the samples.
    """

    def __init__(self, runner: Runner, work: str):
        from refineflow.cli import RunConfig, run

        self.runner = runner
        self.empty = os.path.join(work, "empty.json")
        with open(self.empty, "w", encoding="utf-8") as stream:
            stream.write("[]")
        expected_path = os.path.join(work, "empty-expected.dot")
        run(RunConfig(input_path=self.empty, output_path=expected_path), stderr=io.StringIO())
        with open(expected_path, "rb") as stream:
            self.expected = stream.read()
        self.out = os.path.join(work, "empty.dot")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.blocks: list[list[float]] = []
        # The first launch also writes bytecode caches; it is not timed.
        self.launch()

    def launch(self) -> float:
        if os.path.exists(self.out):
            os.unlink(self.out)
        command = [sys.executable, "-m", "refineflow.cli", "-i", self.empty, "-o", self.out]
        start = time.perf_counter()
        completed = subprocess.run(
            command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        elapsed = time.perf_counter() - start
        outputs = {}
        if os.path.exists(self.out):
            with open(self.out, "rb") as stream:
                outputs["main.dot"] = stream.read()
        self.runner.record("setup-empty", completed.returncode, outputs, completed.stderr.decode(errors="replace"))
        if completed.returncode == 0 and outputs != {"main.dot": self.expected}:
            self.runner.fail("setup-empty", "fresh interpreter output differs from in-process output")
        return elapsed

    def launch_block(self) -> None:
        self.blocks.append([self.launch() for _ in range(SETUP_LAUNCHES)])

    def median(self) -> float:
        return statistics.median(min(launches) for launches in zip(*self.blocks))


def run_gate(runner: Runner, conversions) -> None:
    """Correctness checks outside the timed region (see gate.py)."""
    import gate as checks

    golden_dir = os.path.join(ROOT, "tests", "golden")
    for conversion in conversions:
        # Every input is converted at least twice, so its repeats are
        # compared byte for byte.
        while runner.conversions.get(conversion.key, 0) < 2 and conversion.key not in runner.failures:
            runner.convert(conversion)
        if conversion.key in runner.failures:
            continue
        outputs = runner.outputs[conversion.key]
        golden = os.path.join(golden_dir, conversion.golden) if conversion.golden else None
        try:
            reason = checks.check_outputs(outputs, golden)
            if reason is None and conversion.check_order:
                with open(conversion.recipe_path, encoding="utf-8") as stream:
                    recipe_text = stream.read()
                reason = checks.check_process_view(recipe_text, outputs["main.dot"].decode("utf-8"))
        except Exception as exc:  # the order check runs the program's own effect trace
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            runner.fail(conversion.key, reason)


def end_to_end(runner: Runner, conversions, seconds: float, work: str, report) -> dict[str, float]:
    setup = SetupTimer(runner, work)
    # The untimed passes sit between eight timed stretches, and a block of
    # fresh-interpreter launches follows each stretch, so the samples of
    # every conversion and of start-up spread over the whole run.
    samples = []
    for stretch in range(STRETCHES):
        samples += timed_pass(runner, conversions, seconds / STRETCHES)
        setup.launch_block()
        if stretch == 0:
            run_gate(runner, conversions)
        elif stretch == STRETCHES // 2:
            peak = memory_pass(runner, conversions)
    # Other tenants of the host slow single conversions by up to a factor
    # of two, in bursts. A conversion's time is the fastest of its repeats
    # over the run: the time its own work takes, which the bursts only add to.
    fastest: dict[str, float] = {}
    for key, elapsed in samples:
        fastest[key] = min(elapsed, fastest.get(key, elapsed))
    times = [fastest[c.key] for c in conversions]
    # Linear interpolation between order statistics over the conversion set.
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    report(
        f"timed conversions: {len(samples)}, {len(samples) / len(conversions):.1f} repeats of each of "
        f"the set's {len(times)}; convert_p90_s is over the set, {sum(t > p90 for t in times)} beyond it"
    )
    return {
        "convert_p50_s": statistics.median(times),
        "convert_p90_s": p90,
        "steps_per_s": sum(c.steps for c in conversions) / sum(times),
        "output_bytes": sum(len(data) for c in conversions for data in runner.outputs.get(c.key, {}).values()),
        "peak_mem_mb": peak / 1e6,
        "setup_s": setup.median(),
    }


def per_layer(runner: Runner, conversions, seconds: float, spans_path: str, report) -> dict[str, float]:
    from tracer import MEAN_METRICS, Tracer, layer_totals

    tracer = Tracer()
    differences = traced_pass(runner, conversions, seconds, tracer)
    run_gate(runner, conversions)
    tracer.write(spans_path)
    roots, totals = layer_totals(tracer.spans)
    report(f"traced conversions: {roots}, spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    values = {name: totals.get(name, 0.0) / roots for name in MEAN_METRICS}
    analyzed = totals.get("expressions.analyzed", 0.0)
    values["expressions.opaque_share"] = totals.get("opaque", 0.0) / analyzed if analyzed else 0.0
    pairs = totals.get("ordering_pairs", 0.0)
    values["model.kept_share"] = totals.get("model.process_edges", 0.0) / pairs if pairs else 1.0
    values["trace_overhead_s"] = statistics.median(differences)
    return values


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        declared = json.load(stream)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def source_lines() -> int:
    package = os.path.join(ROOT, "src", "refineflow")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as stream:
                total += sum(1 for _ in stream)
    return total


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, quiet: bool = False) -> dict:
    """One benchmark run; returns the result object."""
    from refineflow.model import DEFAULT_COLLAPSE_THRESHOLD

    def report(line: str) -> None:
        if not quiet:
            print(line)

    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        conversions = workloads.build_inputs(workload, seed, ROOT, work, tiny=tiny)
        recipes = list(dict.fromkeys(c.recipe_path for c in conversions))
        report(f"workload {workload} seed {seed}: {len(conversions)} conversions per set")
        try:
            properties = workloads.recipe_properties(recipes, DEFAULT_COLLAPSE_THRESHOLD)
            report("properties " + json.dumps(properties, sort_keys=True))
        except Exception as exc:  # a broken program fails its conversions below
            report(f"properties not measured: {type(exc).__name__}: {exc}")
        report(f"src/refineflow lines: {source_lines()}")
        runner = Runner(work)
        if trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
            values = per_layer(runner, conversions, seconds, spans_path, report)
        else:
            values = end_to_end(runner, conversions, seconds, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    for key, reason in sorted(runner.failures.items()):
        report(f"FAILED {key}: {reason}")
    attempted, failed = runner.attempted(), runner.failed()
    report(f"failed_share: {failed / attempted:.6f} ({failed} of {attempted} conversions)")
    for name, unit in units.items():
        report(f"  {name} = {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def self_check() -> bool:
    """Every workload of BENCHMARK.json at tiny sizes, in both modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        declared = [workload["name"] for workload in json.load(stream)["workloads"]]
    ok = declared == list(workloads.WORKLOADS)
    if not ok:
        print(f"self-check: BENCHMARK.json lists workloads {declared}, the benchmark has {list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = bench(workload, seed=1, seconds=0.5, trace=trace, tiny=True, quiet=True)
            print(f"self-check {workload} trace={int(trace)}: {'ok' if result['correct'] else 'FAILED'}")
            ok = ok and result["correct"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run every workload at tiny sizes")
    args = parser.parse_args(argv)
    load_program()
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
