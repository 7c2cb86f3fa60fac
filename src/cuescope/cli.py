"""Command-line front end.

Subcommands: annotate, evaluate, bench, rules-validate, generate.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 ok,
1 assertion failure (--check/--strict), 2 rule errors, 3 data errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from . import bench as bench_mod
from . import corpus as corpus_mod
# ``annotate`` is not called here, but perfbench/tracing.py wraps it as
# ``cli.annotate``, so the name stays.
from .engine import ContextAnnotation, InvalidSpan, annotate, annotate_batch, annotate_records  # noqa: F401
from .evaluate import LengthMismatch, score
from .matcher import build_trie
from .rules import DuplicateRule, MalformedRule, load_rules, serialize_rules

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_RULE_ERROR = 2
EXIT_DATA_ERROR = 3


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
    p.add_argument("--engine", choices=("trie", "naive"), default="trie")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any record has an invalid concept span")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--rules", required=True)
    p.add_argument("--gold", required=True, help="gold corpus path or '-'")
    p.add_argument("--engine", choices=("trie", "naive"), default="trie")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("bench", help="time the trie vs naive matcher over a rule ramp")
    p.add_argument("--base", type=int, default=409, help="starting rule count")
    p.add_argument("--final", type=int, default=849, help="final rule count")
    p.add_argument("--step", type=int, default=50, help="rules added per step")
    p.add_argument("--runs", type=int, default=20, help="timed runs per step")
    p.add_argument("--warmup", type=int, default=2, help="discarded runs per step")
    p.add_argument("--engines", default="naive,trie",
                   help="comma-separated subset of naive,trie")
    p.add_argument("--rule-seed", type=int, default=7)
    p.add_argument("--ramp-seed", type=int, default=11)
    p.add_argument("--corpus", default=None, help="corpus path (default: generated)")
    p.add_argument("--corpus-seed", type=int, default=97)
    p.add_argument("--corpus-size", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "table"), default="csv")
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
                   "(default: a generated set)")
    p.add_argument("--rule-seed", type=int, default=7)
    p.add_argument("--rule-count", type=int, default=849)
    p.add_argument("--rate", type=float, default=0.3, help="cue injection rate")
    p.add_argument("--vocab", type=int, default=200)
    p.add_argument("--min-len", type=int, default=6)
    p.add_argument("--max-len", type=int, default=14)
    p.add_argument("--output", default="-")
    return parser


def _open_out(path: str) -> IO[str]:
    return sys.stdout if path == "-" else open(path, "w", encoding="utf-8")


def _read_records(path: str) -> list[corpus_mod.CorpusRecord]:
    if path == "-":
        return corpus_mod.read_corpus(sys.stdin)
    return corpus_mod.read_corpus(path)


def _prediction_dict(annotation: ContextAnnotation) -> dict:
    evidence = {
        dimension.value: [cue.start, cue.end]
        for dimension, cue in annotation.evidence.items()
    }
    return {
        "negation": annotation.negation.value,
        "experiencer": annotation.experiencer.value,
        "temporality": annotation.temporality.value,
        "evidence": evidence,
    }


def _pairs(records: list[corpus_mod.CorpusRecord]):
    return ((record.tokens, record.concept) for record in records)


def cmd_annotate(args: argparse.Namespace) -> int:
    ruleset = load_rules(args.rules)
    trie = build_trie(ruleset) if args.engine == "trie" else None
    records = _read_records(args.input)
    results = annotate_records(_pairs(records), ruleset, trie)
    out = _open_out(args.output)
    errors = 0
    try:
        for index, (record, result) in enumerate(zip(records, results)):
            obj = record.to_dict()
            if isinstance(result, InvalidSpan):
                errors += 1
                obj["error"] = str(result)
                print(f"record {index}: {result}", file=sys.stderr)
            else:
                obj["pred"] = _prediction_dict(result)
            out.write(corpus_mod.dumps_record(obj))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if errors and args.strict:
        print(f"{errors} record(s) failed under --strict", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    ruleset = load_rules(args.rules)
    trie = build_trie(ruleset) if args.engine == "trie" else None
    records = _read_records(args.gold)
    predictions = annotate_batch(_pairs(records), ruleset, trie)
    for prediction in predictions:
        if isinstance(prediction, InvalidSpan):
            raise corpus_mod.CorpusError(str(prediction))
    report = score(predictions, records)
    sys.stdout.write(report.render_csv() if args.format == "csv" else report.render_text())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    engines = tuple(name.strip() for name in args.engines.split(",") if name.strip())
    config = bench_mod.BenchConfig(
        base_rule_count=args.base,
        final_rule_count=args.final,
        step=args.step,
        runs_per_step=args.runs,
        warmup_runs=args.warmup,
        engines=engines,
        rule_seed=args.rule_seed,
        ramp_seed=args.ramp_seed,
        corpus_path=args.corpus,
        corpus=corpus_mod.GeneratorConfig(seed=args.corpus_seed, sentence_count=args.corpus_size),
    )
    report = bench_mod.run_ramp(config)
    sys.stdout.write(bench_mod.emit_report(report, args.format))
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
    ruleset = load_rules(args.rules)
    print(f"ok: {len(ruleset)} rules ({args.rules})")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    out = _open_out(args.output)
    try:
        if args.kind == "rules":
            ruleset = corpus_mod.generate_rules(args.seed, args.count)
            out.write(serialize_rules(ruleset))
        else:
            if args.rules is not None:
                ruleset = load_rules(args.rules)
            else:
                ruleset = corpus_mod.generate_rules(args.rule_seed, args.rule_count)
            config = corpus_mod.GeneratorConfig(
                seed=args.seed,
                sentence_count=args.count,
                vocab_size=args.vocab,
                min_len=args.min_len,
                max_len=args.max_len,
                cue_injection_rate=args.rate,
            )
            corpus_mod.write_corpus(corpus_mod.generate_corpus(config, ruleset), out)
    finally:
        if out is not sys.stdout:
            out.close()
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
    except (corpus_mod.CorpusError, corpus_mod.ConfigError, LengthMismatch, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
