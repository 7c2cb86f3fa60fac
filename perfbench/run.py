"""Annotate benchmark: ``cuescope annotate`` end to end, and the library.

Usage (from the repository root; the package need not be installed)::

    python3 perfbench/run.py --workload sparse-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Inputs come from ``--seed`` (see ``workloads.py``); the rule set is the
849-rule ``generate_rules(7, 849)``.  After an untimed warm-up round the
run repeats rounds, round-robin over the chosen workloads, until
``--seconds`` have passed.  Every time is bracketed by readings of a
fixed reference loop and reported at a fixed host speed (see
``speed.py``); pass times, memory and per-layer figures are the median
over the rounds, latencies percentiles over every call of every round.
All load comes from one closed loop: one ``annotate`` process or one
library call at a time, never two, all on one CPU (see ``pin_to_one_cpu``).

``--trace 0`` rounds, per workload:

* set-up pass: ``python -m cuescope.cli annotate`` (``src/`` on the path)
  on an empty corpus: interpreter start, imports, ``load_rules``,
  ``build_trie``.  Gives ``setup_s``.
* CLI pass: the same command file to file on the workload corpus.  Gives
  ``records_per_s``, ``tokens_per_s`` (start-up included) and
  ``peak_rss_mb`` (the child's own ``ru_maxrss``; see ``spawn.py``).
* library pass: ``cuescope.annotate(tokens, concept, rules, trie)`` on
  every record with one trie built up front, each call timed on its own,
  with a reference reading every ``CHUNK_NS`` of calls.  Gives
  ``latency_p50_us`` and ``latency_p99_us``: the median and 99th
  percentile over the calls of all rounds (the sample count is printed).

``--trace 1`` rounds, per workload: ``cuescope.cli.main(["annotate", ...])``
in process, once plain and once traced (see ``tracing.py``), plus one
fresh interpreter importing ``cuescope.cli`` and one bare interpreter.
Gives the per-layer self times, work counts and tracing overhead.  The
last traced pass's spans are written to ``.perfbench/``.

Every output is checked: each CLI output line must echo its record and
carry the expected ``pred``, and the in-process results must equal the
naive oracle on a seeded sample (see ``check.py``).  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any record failed, 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import speed
import tracing
import workloads

ROOT, SRC = workloads.ROOT, workloads.SRC
WORK = ROOT / ".perfbench"
ORACLE_SAMPLE = 1000
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150  # spawn.py kills its child after 120 s
#: Library calls between two reference readings: about 30 ms of calls,
#: so the readings add about a tenth to a library pass.
CHUNK_NS = 30_000_000

END_TO_END = {
    "records_per_s": "records/s",
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{metric: "ms" for metric in (
        "cli.import_ms", "rules.load_rules_ms", "matcher.build_trie_ms",
        "corpus.read_corpus_ms", "corpus.dumps_record_ms", "cli.self_ms",
        "matcher.find_matches_trie_ms", "engine.resolve_scopes_ms",
        "engine.annotate_self_ms",
    )},
    "matcher.repeat_share": "ratio",
    **{metric: "count" for metric in (
        "corpus.records", "corpus.tokens", "matcher.calls", "matcher.matches",
        "engine.scopes", "engine.invalid_spans",
    )},
    "trace.overhead_share": "ratio",
}


def child_env() -> dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, int, str]:
    """Run one child to completion through ``spawn.py``: wall seconds,
    peak RSS in KiB, exit code and stderr."""
    launcher = [sys.executable, str(Path(__file__).with_name("spawn.py")), str(stderr_path)]
    done = subprocess.run(
        [*launcher, *argv], capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    result = json.loads(done.stdout)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    return result["wall_s"], result["maxrss_kib"], result["code"], stderr


def call_main(main, argv: list[str]) -> int:
    """``cuescope.cli.main`` in process; a traceback counts as exit 1."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def freeze_heap() -> None:
    """Collect, then exempt every live object from later collections, so
    the benchmark's own inputs and results add no work to the collections
    that run inside timed calls."""
    gc.collect()
    gc.freeze()


class Workload:
    """One workload's inputs, expected outputs and collected samples."""

    def __init__(self, name: str, records: list, work: Path, seed: int, ruleset, trie) -> None:
        from cuescope import ConceptSpan

        self.name = name
        self.records = records
        self.corpus = work / f"{name}.jsonl"
        self.output = work / f"{name}.out.jsonl"
        self.stderr = work / f"{name}.stderr"
        self.pairs = [(tokens, ConceptSpan(*concept)) for tokens, concept in self.records]
        self.tokens = sum(len(tokens) for tokens, _ in self.records)
        self.ruleset, self.trie = ruleset, trie
        indices = check.sample_indices(len(self.records), ORACLE_SAMPLE, seed)
        self.oracle = check.oracle_preds(self.records, indices, ruleset)
        self.expected: list[dict] = []
        self.attempted = len(indices)
        self.failed = check.count_wrong(self.oracle, check.reference_preds(self.records, indices, ruleset))
        self.samples: dict[str, list[float]] = {}
        self.latencies_us: list[float] = []

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])

    def library_pass(self) -> list[float]:
        """Annotate every record in process; each call's scaled time in us."""
        from cuescope import annotate

        ruleset, trie, now = self.ruleset, self.trie, time.perf_counter_ns
        times, results = [], []
        freeze_heap()
        # (index of the first call after the reading, reference reading)
        readings = [(0, speed.reference_s())]
        chunk_start = now()
        for tokens, concept in self.pairs:
            start = now()
            result = annotate(tokens, concept, ruleset, trie)
            end = now()
            times.append(end - start)
            results.append(result)
            if end - chunk_start >= CHUNK_NS:
                readings.append((len(times), speed.reference_s()))
                chunk_start = now()
        if readings[-1][0] < len(times):
            readings.append((len(times), speed.reference_s()))
        if not self.expected:
            # the oracle decides the sampled records; the first pass the rest
            self.expected = [check.pred_of(r) for r in results]
            for i, pred in self.oracle.items():
                self.expected[i] = pred
        preds = {i: check.pred_of(results[i]) for i in self.oracle}
        self.attempted += len(results)
        self.failed += check.count_wrong(preds, self.oracle)
        scaled = []
        for (lo, before), (hi, after) in zip(readings, readings[1:]):
            factor = speed.scale(before, after) / 1e3
            scaled.extend(t * factor for t in times[lo:hi])
        return scaled

    def check_output(self, code: int, stderr: str, records: list) -> None:
        """Count the failed records of the last ``annotate`` output on
        ``records``, and delete it.  A non-zero exit or a traceback fails
        the whole workload, also on the empty corpus."""
        lines = []
        if self.output.exists():
            lines = self.output.read_text(encoding="utf-8").split("\n")
            self.output.unlink()
        if lines and lines[-1] == "":
            lines.pop()
        if code != 0 or "Traceback" in stderr or (lines and not records):
            self.fail_all()
            return
        self.attempted += len(records)
        self.failed += check.check_lines(lines, records, self.expected)

    def fail_all(self) -> None:
        self.attempted += len(self.records)
        self.failed += len(self.records)

    def annotate_argv(self, corpus: Path) -> list[str]:
        return [
            "annotate", "--rules", str(self.corpus.parent / "rules.tsv"),
            "--input", str(corpus), "--output", str(self.output),
        ]

    def cli_pass(self, corpus: Path, records: list) -> tuple[float, float, int]:
        """One ``annotate`` child: scaled and raw wall seconds, peak RSS in KiB."""
        argv = [sys.executable, "-m", "cuescope.cli", *self.annotate_argv(corpus)]
        before = speed.reference_s()
        wall, rss_kib, code, err = spawn(argv, self.stderr)
        factor = speed.scale(before, speed.reference_s())
        self.check_output(code, err, records)
        return wall * factor, wall, rss_kib

    def end_to_end_round(self, timed: bool) -> None:
        latencies = self.library_pass()
        setup, _, _ = self.cli_pass(self.corpus.parent / "empty.jsonl", [])
        wall, raw_wall, rss_kib = self.cli_pass(self.corpus, self.records)
        if timed:
            self.latencies_us.extend(latencies)
            self.add("setup_s", setup)
            self.add("cli_wall_s", wall)
            self.add("raw_cli_wall_s", raw_wall)
            self.add("peak_rss_mb", rss_kib / 1024)

    def end_to_end_metrics(self) -> dict[str, float]:
        wall = self.median("cli_wall_s")
        latencies = sorted(self.latencies_us)
        return {
            "records_per_s": len(self.records) / wall,
            "tokens_per_s": self.tokens / wall,
            "setup_s": self.median("setup_s"),
            "latency_p50_us": latencies[len(latencies) // 2],
            "latency_p99_us": latencies[int(len(latencies) * 0.99)],
            "peak_rss_mb": self.median("peak_rss_mb"),
        }

    def traced_round(self, timed: bool, modules: dict) -> None:
        if not self.expected:
            self.library_pass()
        main, argv = modules["cli"].main, self.annotate_argv(self.corpus)
        freeze_heap()
        first = speed.reference_s()
        start = time.perf_counter()
        code = call_main(main, argv)
        plain = time.perf_counter() - start
        middle = speed.reference_s()
        self.check_output(code, "", self.records)
        tracer = tracing.Tracer()
        freeze_heap()
        before = speed.reference_s()
        start = time.perf_counter()
        with tracing.patched(tracer, modules):
            code = call_main(tracer.wrap(tracing.ROOT_SPAN, main), argv)
        traced = time.perf_counter() - start
        after = speed.reference_s()
        traced_factor = speed.scale(before, after)
        self.check_output(code, "", self.records)
        bare, _, _, _ = spawn([sys.executable, "-c", "pass"], self.stderr)
        imported, _, code, err = spawn([sys.executable, "-c", "import cuescope.cli"], self.stderr)
        import_factor = speed.scale(after, speed.reference_s())
        if code != 0:
            print(err, file=sys.stderr)
            self.fail_all()
        if timed:
            plain *= speed.scale(first, middle)
            self.add("trace.overhead_share", traced * traced_factor / plain - 1)
            self.add("cli.import_ms", (imported - bare) * import_factor * 1e3)
            for metric, value in tracing.pass_metrics(tracer).items():
                if metric.endswith("_ms"):
                    value *= traced_factor
                self.add(metric, value)
        self.last_spans = tracer.spans

    def per_layer_metrics(self) -> dict[str, float]:
        self.samples["corpus.tokens"] = [self.tokens]
        # median_low keeps the counts whole numbers
        return {metric: statistics.median_low(self.samples[metric]) for metric in PER_LAYER}


def pin_to_one_cpu() -> None:
    """Keep the benchmark and every child it starts on one CPU.

    On the shared VMs the benchmark was tuned on, each vCPU switches
    between a fast and a half-as-fast state on its own (the reference
    loop's readings on the two vCPUs of one VM correlated at 0.25), so a
    reference reading says little about a child running on the other
    vCPU.  Only one process computes at a time, so nothing waits for the
    CPU this takes away.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host {platform.node()} | Python {platform.python_version()} | "
        f"nproc {os.cpu_count()} | commit {git_commit()} | load {load}"
    )


def report_end_to_end(runs: list[Workload]) -> dict[str, dict[str, float]]:
    print(f"{'workload':<14} " + " ".join(f"{m:>15}" for m in END_TO_END)
          + f" {'failed_share':>12} {'rounds':>6} {'lat_samples':>11}")
    results = {}
    for run in runs:
        metrics = run.end_to_end_metrics()
        results[run.name] = metrics
        rounds = len(run.samples["cli_wall_s"])
        print(f"{run.name:<14} " + " ".join(f"{metrics[m]:>15.4f}" for m in END_TO_END)
              + f" {run.failed / run.attempted:>12.4f} {rounds:>6} {len(run.latencies_us):>11}")
        print(f"{'':<14} CLI pass wall, median: {run.median('cli_wall_s'):.4f} s scaled, "
              f"{run.median('raw_cli_wall_s'):.4f} s as measured")
    print("units: " + ", ".join(f"{m} {u}" for m, u in END_TO_END.items()) + ", failed_share ratio")
    print(f"times are scaled to the host speed at which the reference loop takes "
          f"{speed.NOMINAL_S * 1e3:.2f} ms (see perfbench/speed.py)")
    return results


def report_per_layer(runs: list[Workload]) -> dict[str, dict[str, float]]:
    results = {run.name: run.per_layer_metrics() for run in runs}
    print(f"{'metric':<30} {'unit':<6} " + " ".join(f"{run.name:>14}" for run in runs))
    for metric, unit in PER_LAYER.items():
        print(f"{metric:<30} {unit:<6} " + " ".join(f"{results[r.name][metric]:>14.4f}" for r in runs))
    for run in runs:
        m = results[run.name]
        io_side = m["corpus.read_corpus_ms"] + m["corpus.dumps_record_ms"] + m["cli.self_ms"]
        engine_side = (m["matcher.find_matches_trie_ms"] + m["engine.resolve_scopes_ms"]
                       + m["engine.annotate_self_ms"])
        print(f"{run.name}: corpus+cli self {io_side:.1f} ms, matcher+engine self "
              f"{engine_side:.1f} ms per pass of {len(run.records)} records")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuescope" / "cli.py").is_file():
        print(f"error: no cuescope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cuescope import build_trie, cli, corpus, engine, load_rules

    pin_to_one_cpu()
    print(f"# environment: {environment()}")
    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    corpora = workloads.write_inputs(work, args.seed, names)
    ruleset = load_rules(work / "rules.tsv")
    trie = build_trie(ruleset)
    runs = [Workload(name, records, work, args.seed, ruleset, trie) for name, records in corpora.items()]
    modules = {"cli": cli, "corpus": corpus, "engine": engine}

    def one_round(timed: bool) -> None:
        for run in runs:
            if args.trace:
                run.traced_round(timed, modules)
            else:
                run.end_to_end_round(timed)

    one_round(timed=False)
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        one_round(timed=True)
        rounds += 1
    print(f"# environment at end: {environment()}")

    if args.trace:
        results = report_per_layer(runs)
        units = PER_LAYER
        for run in runs:
            path = WORK / f"spans-{run.name}-{args.seed}.jsonl"
            tracing.write_spans(path, run.last_spans)
            print(f"# spans of the last traced pass: {path.relative_to(ROOT)}")
    else:
        results = report_end_to_end(runs)
        units = END_TO_END
    if len(runs) == 1:
        metrics = {m: {"value": v, "unit": units[m]} for m, v in results[runs[0].name].items()}
    else:
        metrics = {f"{name}/{m}": {"value": v, "unit": units[m]}
                   for name, values in results.items() for m, v in values.items()}
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
