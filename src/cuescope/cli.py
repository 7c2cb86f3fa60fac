"""Command-line front end.

Subcommands: annotate, evaluate, bench, rules-validate, generate.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 ok,
1 assertion failure (--check/--strict), 2 rule errors (an unreadable
rule file too), 3 data errors, 141 the reader of the output went away.

``annotate`` and ``evaluate`` read their corpus through one record loop,
which pairs each record with its result as it streams and always matches
through the trie; ``annotate`` writes each pair as
``corpus.annotated_line`` forms it, on the record's input line when the
reader proved that line canonical, and ``evaluate`` scores each pair
through ``evaluate.score``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import stat
import sys
from typing import IO, Iterator

from . import corpus as corpus_mod
# ``annotate`` is not called here, but perfbench/tracing.py wraps it as
# ``cli.annotate`` and perfbench/test_perfbench.py asserts
# ``cli.annotate is annotate``, so the name stays.
from .engine import ContextAnnotation, InvalidSpan, annotate, annotate_records  # noqa: F401
from .matcher import build_trie
from .rules import DuplicateRule, MalformedRule, RuleSet, load_rules, serialize_rules

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_RULE_ERROR = 2
EXIT_DATA_ERROR = 3
#: 128 + SIGPIPE, what a shell reports for a process that signal ended
EXIT_BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuescope",
        description="Detect negation, experiencer and temporality modifiers "
        "of concept mentions in tokenized text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate a JSON-lines corpus")
    p.add_argument("--rules", required=True, help="rule file (tab-delimited)")
    p.add_argument("--input", default="-", help="corpus path or '-' for stdin")
    p.add_argument("--output", default="-", help="output path or '-' for stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any record has an invalid concept span")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--rules", required=True)
    p.add_argument("--gold", required=True, help="gold corpus path or '-'")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("bench", help="time the trie vs naive matcher over a rule ramp")
    p.add_argument("--base", type=int, default=409, help="starting rule count")
    p.add_argument("--final", type=int, default=849, help="final rule count")
    p.add_argument("--step", type=int, default=50, help="rules added per step")
    p.add_argument("--runs", type=int, default=20, help="timed runs per step")
    p.add_argument("--warmup", type=int, default=2, help="discarded runs per step")
    p.add_argument("--corpus", default=None, help="corpus path (default: generated, seed 97)")
    p.add_argument("--corpus-size", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.add_argument("--output", default="-", help="report path or '-' for stdout")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the scaling-shape assertions hold")

    p = sub.add_parser("rules-validate", help="parse a rule file and report")
    p.add_argument("--rules", required=True)

    p = sub.add_parser("generate", help="emit a synthetic rule set or corpus")
    p.add_argument("kind", choices=("rules", "corpus"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=849,
                   help="rules: rule count; corpus: sentence count")
    p.add_argument("--rules", default=None,
                   help="corpus only: rule file to inject cues from "
                   f"(default: the first --rule-count rules of seed {corpus_mod.RULE_SEED})")
    p.add_argument("--rule-count", type=int, default=849)
    p.add_argument("--rate", type=float, default=0.3, help="cue injection rate")
    p.add_argument("--output", default="-")
    return parser


def _load_rules(path: str) -> RuleSet:
    """The rule file at ``path``; one that cannot be read is a rule error."""
    try:
        return load_rules(path)
    except OSError as err:
        raise MalformedRule(str(err)) from None


def _open_out(path: str) -> contextlib.AbstractContextManager[IO[str]]:
    """``path`` ('-': stdout) for writing; leaving the block closes a file only."""
    if path == "-":
        if sys.stdout is None:  # the process started with it closed
            raise corpus_mod.CorpusError("standard output is closed")
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _open_in(path: str) -> contextlib.AbstractContextManager[IO[str]]:
    """The corpus at ``path`` ('-': stdin), opened for ``iter_corpus``."""
    if path != "-":
        return corpus_mod.open_corpus(path)
    if sys.stdin is None:  # the process started with it closed
        raise corpus_mod.CorpusError("standard input is closed")
    try:
        fd = sys.stdin.fileno()
    except (AttributeError, io.UnsupportedOperation):  # stdin is an in-memory stream
        return contextlib.nullcontext(sys.stdin)
    return corpus_mod.open_corpus(fd)


def _writes_to_input(source: IO[str], output: str) -> bool:
    """Whether ``output`` ('-': stdout) is the regular file ``source`` reads.
    Opening it would empty the input; appending to it would feed the
    output back to the reader."""
    try:
        read = os.fstat(source.fileno())
        written = os.fstat(sys.stdout.fileno()) if output == "-" else os.stat(output)
    except (AttributeError, OSError):  # an in-memory stream, or no output file yet
        return False
    return stat.S_ISREG(read.st_mode) and os.path.samestat(read, written)


def _annotated(
    source: IO[str], ruleset: RuleSet
) -> Iterator[tuple[ContextAnnotation | InvalidSpan, corpus_mod.CorpusRecord, str | None]]:
    """Each result with its record of ``source`` and the record's head when
    the reader proved its line canonical (``corpus._iter_lines``), one
    record at a time, matched through one trie built for the run; a
    malformed line raises once the records before it are yielded."""
    # annotate_records yields each result before it reads the next pair,
    # so ``read`` holds the record that ``result`` belongs to
    pairs = (((read := item)[0].tokens, item[0].concept) for item in corpus_mod._iter_lines(source))
    for result in annotate_records(pairs, ruleset, build_trie(ruleset)):
        yield result, *read


def cmd_annotate(args: argparse.Namespace) -> int:
    ruleset = _load_rules(args.rules)
    errors = 0
    # the input is opened first, so that a missing input leaves the output
    # untouched, and checked against the output, which opening truncates
    with _open_in(args.input) as source:
        if _writes_to_input(source, args.output):
            raise corpus_mod.CorpusError(
                f"--input and --output are the same file: {args.input} and {args.output}"
            )
        with _open_out(args.output) as out:
            write, annotated_line = out.write, corpus_mod.annotated_line
            encode = corpus_mod._run_heads()
            for result, record, head in _annotated(source, ruleset):
                if type(result) is InvalidSpan:
                    errors += 1
                    print(f"line {record.line_no}: {result}", file=sys.stderr)
                # a line proven canonical is written back as read
                write(annotated_line(record, result, head or encode(record)))
    if errors and args.strict:
        print(f"{errors} record(s) failed under --strict", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluate import score  # only here, as bench is, so annotate starts faster

    ruleset = _load_rules(args.rules)
    with _open_in(args.gold) as source:
        report = score((result, record) for result, record, _ in _annotated(source, ruleset))
    with _open_out("-") as out:
        out.write(report.render_csv() if args.format == "csv" else report.render_text())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod  # only here, so other commands start faster

    config = bench_mod.BenchConfig(
        base_rule_count=args.base,
        final_rule_count=args.final,
        step=args.step,
        runs_per_step=args.runs,
        warmup_runs=args.warmup,
        corpus_path=args.corpus,
        corpus_size=args.corpus_size,
    )
    report = bench_mod.run_ramp(config)
    with _open_out(args.output) as out:
        out.write(bench_mod.emit_report(report, args.format))
    print(f"environment: {report.environment}", file=sys.stderr)
    if args.check:
        failures = bench_mod.check_report(report)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return EXIT_ASSERTION
        print("check: all scaling assertions hold", file=sys.stderr)
    return EXIT_OK


def cmd_rules_validate(args: argparse.Namespace) -> int:
    ruleset = _load_rules(args.rules)
    print(f"ok: {len(ruleset)} rules ({args.rules})")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    # the output is opened, which empties it, only once every input is read
    # and checked: it may be the rule file itself
    if args.kind == "rules":
        text = serialize_rules(corpus_mod.generate_rules(args.seed, args.count))
        with _open_out(args.output) as out:
            out.write(text)
        return EXIT_OK
    if args.rules is not None:
        ruleset = _load_rules(args.rules)
    else:
        ruleset = corpus_mod.generate_rules(corpus_mod.RULE_SEED, args.rule_count)
    config = corpus_mod.GeneratorConfig(args.seed, args.count, args.rate)
    records = corpus_mod.generate_corpus(config, ruleset)
    with _open_out(args.output) as out:
        corpus_mod.write_corpus(records, out)
    return EXIT_OK


_COMMANDS = {
    "annotate": cmd_annotate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
    "rules-validate": cmd_rules_validate,
    "generate": cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MalformedRule, DuplicateRule) as err:
        print(f"rule error: {err}", file=sys.stderr)
        return EXIT_RULE_ERROR
    except BrokenPipeError:
        # nothing reads the output any more: say nothing, and point stdout
        # at the null device so that its flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (corpus_mod.CorpusError, corpus_mod.ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
