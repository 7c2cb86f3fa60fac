"""Planted faults: check that the tests fail on each of a list of known bugs.

Each fault is one exact-text patch ``(name, old, new)`` to a file under
``src/``: ``old`` must occur exactly once in ``src/``.  For each fault the
script copies the tree to a temporary directory, applies the patch there
and runs ``pytest -x -q`` without the two timing criteria (C2, C3).  That
run must fail.  A fault the run passes on survives: the script lists the
survivors and exits 1.  This is mutation testing (DeMillo, Lipton &
Sayward, "Hints on test data selection: help for the practicing
programmer", IEEE Computer 11(4), 1978).

A survivor is a gap in the tests: add the test that kills it, and keep the
fault.  When a refactor changes an ``old`` text, update the fault to the
new text, so that it still plants the same bug.

The unchanged tree is run first and must pass.  Each run takes up to a
minute.  Run from anywhere, with only the standard library and pytest::

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS: list[tuple[str, str, str]] = [
    # the record reader
    ("no Extra data check",
     "if end != len(line):",
     "if False:"),
    ("wrong message for a line no value starts",
     'else "Expecting value")',
     'else "Expecting a value")'),
    ("byte-order mark stripped on every line",
     'if line_no == 1 and line[0] == "\\ufeff":',
     'if line[0] == "\\ufeff":'),
    ("ConceptSpan built as a plain tuple",
     "tuple.__new__(ConceptSpan, concept)",
     "tuple(concept)"),
    ("no lone-surrogate check",
     'if "\\\\u" in line:',
     "if False:"),
    ("ValueError from the decoder not caught",
     "except (ValueError, RecursionError) as err:",
     "except RecursionError as err:"),
    ("no gold type check",
     "if type(gold) is not dict:",
     "if False:"),
    ("a space after the gold key",
     """head += f',"gold":{{{gold}}}'""",
     """head += f',"gold": {{{gold}}}'"""),
    # the engine
    ("shared no-cue result built with a plain dict",
     "_NO_CUE = ContextAnnotation()",
     "_NO_CUE = ContextAnnotation(evidence={})"),
    ("results not picklable",
     "self.temporality, dict(self.evidence))",
     "self.temporality, self.evidence)"),
    ("tie-break prefers the leftmost cue over the rank",
     "key = (_cue_distance(cue, concept), entry.rank, cue.start, cue.rule_id)",
     "key = (_cue_distance(cue, concept), cue.start, entry.rank, cue.rule_id)"),
    ("farthest cue wins",
     "key = (_cue_distance(cue, concept),",
     "key = (-_cue_distance(cue, concept),"),
    ("every record of a run matched again",
     "if scopes is None:",
     "if True:"),
    ("a run matched before its first valid concept",
     "run_tokens, n, scopes = tokens[:], len(tokens), None",
     "run_tokens, n, scopes = tokens[:], len(tokens), _sentence_scopes(tokens, ruleset, trie)"),
    ("no case fold",
     "if joined != joined.lower():",
     "if False:"),
    ("wrong temporality default",
     "ExperiencerStatus.PATIENT, TemporalityStatus.RECENT)",
     "ExperiencerStatus.PATIENT, TemporalityStatus.HISTORICAL)"),
    # rules and scoring
    ("non-ASCII digits taken as a window",
     "if not (digits.isascii() and digits.isdigit()):",
     "if not digits.isdigit():"),
    ("records not counted in score",
     "report.records += 1",
     "report.records += 0"),
    ("ContextRule's ValueError not wrapped",
     "raise MalformedRule(str(err), line_no=line_no, column=1) from None",
     "raise"),
    # the trie walk
    ("no sort on an equal-length merge",
     "best = sorted(best + rules)",
     "best = best + rules"),
    ("wildcard branches only from the start node",
     "wild = node.wildcard_child",
     "wild = None"),
    # the engine's result
    ("evidence in dimension order, not cue order",
     "for dim, (_, scope) in best.items():",
     "for dim, (_, scope) in sorted(best.items()):"),
    # the command line
    ("no same-file check",
     "return stat.S_ISREG(read.st_mode) and os.path.samestat(read, written)",
     "return False"),
    ("no regular-file condition on the same-file check",
     "return stat.S_ISREG(read.st_mode) and os.path.samestat(read, written)",
     "return os.path.samestat(read, written)"),
    ("an invalid span skipped in evaluate",
     'raise CorpusError(f"{where}{prediction}")',
     "continue"),
    ("an invalid span scored as a default result",
     'raise CorpusError(f"{where}{prediction}")',
     "prediction = ContextAnnotation()"),
    ("the whole gold file read before scoring",
     "score(_annotated(source, ruleset))",
     "score(list(_annotated(source, ruleset)))"),
    ("the CLI annotates through the naive matcher",
     "for result in annotate_records(pairs, ruleset, build_trie(ruleset)):",
     "for result in annotate_records(pairs, ruleset, None):"),
    ("annotate opens --output before --input",
     "with _open_in(args.input) as source:",
     "with _open_out(args.output), _open_in(args.input) as source:"),
    ("generate opens --output before it reads --rules",
     "    if args.rules is not None:\n        ruleset = _load_rules(args.rules)",
     "    if args.rules is not None:\n        with _open_out(args.output):\n"
     "            pass\n        ruleset = _load_rules(args.rules)"),
    ("generate corpus injects cues from another rule seed",
     "corpus_mod.generate_rules(corpus_mod.RULE_SEED, args.rule_count)",
     "corpus_mod.generate_rules(8, args.rule_count)"),
    # the generators
    ("longer generated sentences",
     "MIN_LEN, MAX_LEN = 6, 14",
     "MIN_LEN, MAX_LEN = 6, 15"),
    ("199 filler words",
     'FILLER_VOCAB = tuple(f"w{i:03d}" for i in range(200))',
     'FILLER_VOCAB = tuple(f"w{i:03d}" for i in range(199))'),
    ("another wildcard rate",
     "if length >= 2 and rng.random() < 0.05:",
     "if length >= 2 and rng.random() < 0.04:"),
    # the types: immutable, and equal by the fields that count
    ("CorpusRecord equality compares line_no",
     "return (self.tokens, self.concept, self.gold) == (other.tokens, other.concept, other.gold)",
     "return (self.tokens, self.concept, self.gold, self.line_no) == "
     "(other.tokens, other.concept, other.gold, other.line_no)"),
    ("RuleSet equality ignores the rules",
     "return self.rules == other.rules",
     "return True"),
    ("an assignable RuleSet.table",
     '__slots__ = ("rules", "table")',
     '__slots__ = ("rules", "table")\n\n'
     "    def __setattr__(self, name, value):\n"
     '        if name != "table":\n'
     "            _Frozen.__setattr__(self, name, value)\n"
     "        object.__setattr__(self, name, value)"),
    ("only a space rejected in a phrase token",
     "if tok.split() != [tok]:",
     'if " " in tok:'),
    # start-up
    ("evaluate imported at the top of cli.py",
     "from . import corpus as corpus_mod\n",
     "from . import corpus as corpus_mod\nfrom . import evaluate  # noqa: F401\n"),
    # the scaling bench
    ("ramp bounds not checked",
     "if not (1 <= base <= final):",
     "if False:"),
    ("no final-speedup check",
     "if final.speedup_vs_naive < FINAL_SPEEDUP_MIN:",
     "if False:"),
    ("constant naive means pass the Spearman check",
     "if not rho >= SPEARMAN_MIN:",
     "if rho < SPEARMAN_MIN:"),
    ("naive and trie swapped in a table row",
     "for row in (naive, trie))",
     "for row in (trie, naive))"),
    ("speedup inverted",
     "naive_mean / trie_mean",
     "trie_mean / naive_mean"),
    ("another rule seed",
     "RULE_SEED = 7",
     "RULE_SEED = 8"),
    ("another ramp seed",
     "RAMP_SEED = 11",
     "RAMP_SEED = 12"),
    ("another corpus seed",
     "CORPUS_SEED = 97",
     "CORPUS_SEED = 98"),
]

#: The test run each fault must fail: fast, without the timing criteria.
PYTEST = [
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_acceptance.py::test_c2_scaling_shape",
    "--deselect", "tests/test_acceptance.py::test_c3_relative_speedup",
]


def occurrences(old: str, root: Path = ROOT) -> dict[Path, int]:
    """The files under ``root/src`` that hold ``old``, with its count in each."""
    found = {}
    for path in sorted((root / "src").rglob("*.py")):
        count = path.read_text(encoding="utf-8").count(old)
        if count:
            found[path] = count
    return found


def plant(root: Path, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` under ``root/src`` by ``new``."""
    found = occurrences(old, root)
    if list(found.values()) != [1]:
        raise SystemExit(f"{old!r} occurs {sum(found.values())} times in src/, not once")
    (path,) = found
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def fails(old: str | None = None, new: str = "") -> bool:
    """Whether the tests fail on a copy of the tree, with the fault ``old``
    → ``new`` planted (none when ``old`` is None)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks",
            "*.egg-info"))
        if old is not None:
            plant(tree, old, new)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        run = subprocess.run([sys.executable, *PYTEST], cwd=tree, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main() -> int:
    # a run that fails without a fault would count every fault as killed
    if fails():
        print("the tests fail on the unchanged tree", file=sys.stderr)
        return 2
    survivors = []
    for name, old, new in MUTANTS:
        ok = fails(old, new)
        print(f"{'killed ' if ok else 'SURVIVED'}  {name}", flush=True)
        if not ok:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} fault(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
