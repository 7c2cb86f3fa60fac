"""Planted faults: check that the tests fail on each of a list of known bugs.

Each fault is one exact-text patch ``(name, old, new)`` to a file under
``src/``: ``old`` must occur exactly once in ``src/``.  For each fault the
script copies the tree to a temporary directory, applies the patch there
and runs ``pytest -x -q`` without the three timing criteria (C2, C3,
C8), the patched module's own test file first, so that the tests most
likely to fail run before the slow acceptance criteria.  That run must
fail.  A fault the run passes on survives: the script
lists the survivors and exits 1.  This is mutation testing (DeMillo,
Lipton & Sayward, "Hints on test data selection: help for the practicing
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
     """text += f',"gold":{{{gold}}}'""",
     """text += f',"gold": {{{gold}}}'"""),
    # a run of lines with one token array, decoded once
    ("no backslash test on the line a run's head is proven from",
     'cut = -1 if "\\\\" in line else line.find',
     "cut = line.find"),
    ("a quote inside a run's token taken as its end",
     """body.count('"') == 2 * len(tokens)""",
     "True"),
    ("a run's token array not closed by a quote accepted",
     """body[0] == body[-1] == '"' and """,
     ""),
    ("a rest holding tokens accepted",
     'if obj and end == len(rest) and "tokens" not in obj:',
     "if obj and end == len(rest):"),
    ("trailing data after the rest accepted",
     'if obj and end == len(rest) and "tokens" not in obj:',
     'if obj and "tokens" not in obj:'),
    ("an empty rest accepted",
     'if obj and end == len(rest) and "tokens" not in obj:',
     'if obj is not None and end == len(rest) and "tokens" not in obj:'),
    ("a run's records sharing one list object",
     "tokens, cut = run[1][:], len(run[0]) - 2",
     "tokens, cut = run[1], len(run[0]) - 2"),
    # a canonical line handed out as its record's head
    ("a line with a backslash echoed",
     "return record, (line[:-1] if line[cut:] == tail else None)",
     'return record, (line[:-1] if "\\\\" in line or line[cut:] == tail else None)'),
    ("no length test: a line that ends as its record's encoding echoed",
     "line[cut:] == tail",
     "line.endswith(tail)"),
    ("the concept compared as decoded ints, not as its text, which lets -0 through",
     "line[cut:] == tail",
     "line.startswith(tail[:13], cut) and json.loads(line[cut + 12:-1]) == concept"),
    ("gold lines echoed",
     "return record, (line[:-1] if line[cut:] == tail else None)",
     "return record, (line[:-1] if gold is not None or line[cut:] == tail else None)"),
    ("the tail test of a run's later line dropped",
     "return record, (line[:-1] if line[cut:] == tail else None)",
     "return record, (line[:-1] if run is not None or line[cut:] == tail else None)"),
    ("a full line's tokens taken to end one character late",
     "cut = 10 + len(joined) + 3 * len(tokens) if tokens else 11",
     "cut = 11 + len(joined) + 3 * len(tokens) if tokens else 11"),
    ("an empty token array taken to end as a non-empty one",
     "cut = 10 + len(joined) + 3 * len(tokens) if tokens else 11",
     "cut = 10 + len(joined) + 3 * len(tokens)"),
    ("the join replaced by a list-type check alone",
     'joined = "".join(tokens)  # a TypeError when a token is not a string',
     'joined = "".join(map(str, tokens))'),
    # the writer: a run's tokens encoded once
    ("the writer comparing tokens with is",
     "if tokens != last:\n            last, tokens_json = tokens[:],",
     "if tokens is not last:\n            last, tokens_json = tokens,"),
    # the engine
    ("shared no-cue result built with a plain dict",
     "_NO_CUE = ContextAnnotation()",
     "_NO_CUE = ContextAnnotation(evidence={})"),
    ("results not picklable",
     "self.temporality, dict(self.evidence))",
     "self.temporality, self.evidence)"),
    ("tie-break prefers the leftmost cue over the rank",
     "key = (_cue_distance(cue, concept), rank, cue_start, rule_id)",
     "key = (_cue_distance(cue, concept), cue_start, rank, rule_id)"),
    ("farthest cue wins",
     "key = (_cue_distance(cue, concept),",
     "key = (-_cue_distance(cue, concept),"),
    # scope resolution directed at one concept
    ("the forward reach bound off by one, dropping a reaching trigger",
     "if not e.forward or m_end + e.window <= c_start:",
     "if not e.forward or m_end + e.window <= c_start + 1:"),
    ("the forward reach bound off by one, keeping a trigger that misses",
     "if not e.forward or m_end + e.window <= c_start:",
     "if not e.forward or m_end + e.window < c_start:"),
    ("the backward reach bound off by one, dropping a reaching trigger",
     "if not e.backward or m_start - e.window >= c_end:",
     "if not e.backward or m_start - e.window >= c_end - 1:"),
    ("the backward reach bound off by one, keeping a trigger that misses",
     "if not e.backward or m_start - e.window >= c_end:",
     "if not e.backward or m_start - e.window > c_end:"),
    # the memo of one sentence: the trie's entry, which annotate marks and fills
    ("ownership of the trie's entry tested by equal matches, not by identity",
     "if entry[1] and entry[1][0] is matches[0]:",
     "if entry[1] and entry[1][0] == matches[0]:"),
    ("the ownership test of the trie's entry dropped",
     "if entry[1] and entry[1][0] is matches[0]:",
     "if entry[1]:"),
    ("no guard for an entry with no matches",
     "if entry[1] and entry[1][0] is matches[0]:",
     "if entry[1][0] is matches[0]:"),
    ("state written onto another sentence's entry",
     "if entry[1] and entry[1][0] is matches[0]:",
     "if entry[1] and entry[1][0] is matches[0] or trie._memo.__setitem__(0, (*entry[:2], None)):"),
    ("the memo key holding the caller's own list, not a copy",
     "_memo[0] = (entry[0], entry[1], None)",
     "_memo[0] = (tokens, entry[1], None)"),
    ("the entry never marked, so never filled",
     "_memo[0] = (entry[0], entry[1], None)",
     "_memo[0] = entry"),
    ("a fill on every later call",
     "if reach is None:",
     "if True:"),
    ("the fill storing directed scopes instead of the full ones",
     "for scope in resolve_scopes(matches, ruleset, n):",
     "for scope in resolve_scopes(matches, ruleset, n, concept):"),
    ("a pick that resolves again",
     "                for scope, f_lo, f_hi, b_lo, b_hi in reach:\n"
     "                    if f_lo <= start < f_hi or b_lo < end <= b_hi:\n"
     "                        scopes.append(scope)\n",
     "                scopes = resolve_scopes(matches, ruleset, n, concept)\n"),
    ("the hit's forward lower bound off by one",
     "if f_lo <= start < f_hi or b_lo < end <= b_hi:",
     "if f_lo < start < f_hi or b_lo < end <= b_hi:"),
    ("the hit's forward upper bound off by one",
     "if f_lo <= start < f_hi or b_lo < end <= b_hi:",
     "if f_lo <= start <= f_hi or b_lo < end <= b_hi:"),
    ("the hit's backward lower bound off by one",
     "if f_lo <= start < f_hi or b_lo < end <= b_hi:",
     "if f_lo <= start < f_hi or b_lo <= end <= b_hi:"),
    ("the hit's backward upper bound off by one",
     "if f_lo <= start < f_hi or b_lo < end <= b_hi:",
     "if f_lo <= start < f_hi or b_lo < end < b_hi:"),
    ("one store of the entry read for every trie",
     "entry = trie._memo[0]",
     'entry = globals().setdefault("_MEMO", trie._memo)[0]'),
    ("the record loop reading the trie entry's store",
     "scopes = resolve_scopes(matches, ruleset, n) if matches else []",
     "scopes = resolve_scopes(matches, ruleset, n) if matches else []\n"
     "                if trie is not None and len(trie._memo[0] or ()) == 3:\n"
     "                    scopes = trie._memo[0][2] or scopes"),
    # pseudo suppression and termination cuts, in one pass
    ("a forward stop at the scope's first token cutting it",
     "i = bisect_right(stops, start)",
     "i = bisect_right(stops, start - 1)"),
    ("a forward stop one token inside the scope not cutting it",
     "i = bisect_right(stops, start)",
     "i = bisect_right(stops, start + 1)"),
    ("a backward stop at the scope's end cutting it",
     "i = bisect_left(stops, end) - 1",
     "i = bisect_left(stops, end + 1) - 1"),
    ("a backward stop one token inside the scope not cutting it",
     "i = bisect_left(stops, end) - 1",
     "i = bisect_left(stops, end - 1) - 1"),
    ("pseudo coverage running one token past the pseudo's end",
     'cover[m_start:m_end] = b"\\1" * (m_end - m_start)',
     'cover[m_start:m_end + 1] = b"\\1" * (m_end + 1 - m_start)'),
    ("backward stops left unsorted",
     "    for stops in backward_stops.values():\n        stops.sort()\n",
     ""),
    ("the cue-overlap skip dropped",
     "                else:\n                    continue  # the cue overlaps the concept\n",
     ""),
    ("annotate_records passing the run's first concept",
     "scopes = resolve_scopes(matches, ruleset, n) if matches else []",
     "scopes = resolve_scopes(matches, ruleset, n, concept) if matches else []"),
    ("every record of a run matched again",
     "if scopes is None:",
     "if True:"),
    ("a run matched before its first valid concept",
     "run_tokens, n, scopes = tokens[:], len(tokens), None",
     "run_tokens, n, scopes = tokens[:], len(tokens), (resolve_scopes(find_matches_trie(trie, tokens), "
     "ruleset, len(tokens)) if trie is not None else None)"),
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
    # a sentence with no cue word
    ("the set test runs with a root wildcard edge",
     "first_words = None if root.wildcard_child is not None else frozenset(root.children)",
     "first_words = frozenset(root.children)"),
    ("the set test leaves out the last token",
     "first_words.isdisjoint(tokens)",
     "first_words.isdisjoint(tokens[:-1])"),
    ("the set test runs before case folding",
     'the deepest terminal hits.\n    """\n    joined = "".join(tokens)\n',
     'the deepest terminal hits.\n    """\n'
     "    first_words = trie._first_words\n"
     "    if first_words is not None and first_words.isdisjoint(tokens):\n"
     "        return []\n"
     '    joined = "".join(tokens)\n'),
    ("the set test reads the caller's tokens, not the folded list",
     "first_words.isdisjoint(tokens)",
     "first_words.isdisjoint(given)"),
    # the trie's memo of its last cue-bearing sentence
    ("the memo keys on the caller's own list, not a copy",
     "memo[0] = (given[:], tuple(matches))",
     "memo[0] = (given, tuple(matches))"),
    ("the memo stores the list its caller receives",
     "memo[0] = (given[:], tuple(matches))",
     "memo[0] = (given[:], matches)"),
    ("one memo shared by every trie",
     'object.__setattr__(self, "_first_words", first_words)\n'
     '        object.__setattr__(self, "_memo", [None])',
     'object.__setattr__(self, "_first_words", first_words)\n'
     '        object.__setattr__(self, "_memo", build_trie.__dict__.setdefault("memo", [None]))'),
    ("a cue-free sentence written to the memo",
     "return []  # no token can start a cue",
     "trie._memo[0] = (given[:], ())\n        return []"),
    # case folding, owned by the matchers
    ("no case fold in find_matches_trie",
     "if joined != joined.lower():  # a new list only when case must fold\n"
     "        tokens = [token.lower() for token in tokens]\n    first_words",
     "if False:  # a new list only when case must fold\n"
     "        tokens = [token.lower() for token in tokens]\n    first_words"),
    ("no case fold in find_matches_naive",
     "if joined != joined.lower():  # a new list only when case must fold\n"
     "        tokens = [token.lower() for token in tokens]\n    n = len(tokens)",
     "if False:  # a new list only when case must fold\n"
     "        tokens = [token.lower() for token in tokens]\n    n = len(tokens)"),
    ("a cue-free run matched again at every record",
     "if scopes is None:",
     "if not scopes:"),
    # the one-record path
    ("the identity test taken for every trie",
     "if trie is not None and trie.ruleset is not ruleset:\n",
     "if False:\n"),
    ("a cue-free result returned before the span check",
     "    if not 0 <= start < end <= n:\n"
     "        raise _invalid_span(concept, n)\n"
     "    matches = find_matches_trie(trie, tokens) if trie is not None else find_matches_naive(ruleset, tokens)\n"
     "    if not matches:\n"
     "        return _NO_CUE\n",
     "    matches = find_matches_trie(trie, tokens) if trie is not None else find_matches_naive(ruleset, tokens)\n"
     "    if not matches:\n"
     "        return _NO_CUE\n"
     "    if not 0 <= start < end <= n:\n"
     "        raise _invalid_span(concept, n)\n"),
    ("an empty match list resolved",
     "    if not matches:\n        return _NO_CUE\n",
     ""),
    # the engine's result
    ("evidence in dimension order, not cue order",
     "for dim, (_, (cue, dimension, value, _, _)) in best.items():",
     "for dim, (_, (cue, dimension, value, _, _)) in sorted(best.items()):"),
    # the command line
    ("a closed stdout not refused",
     "if sys.stdout is None:",
     "if False:"),
    ("a closed stdin not refused",
     "if sys.stdin is None:",
     "if False:"),
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
     "for result, record, _ in _annotated(source, ruleset))",
     "for result, record, _ in list(_annotated(source, ruleset)))"),
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
    ("one enum keeps Enum.__hash__",
     "class Dimension(_Enum):",
     "class Dimension(Enum):"),
    ("__reduce__ drops the rules",
     "return (RuleSet, (self.rules,))",
     "return (RuleSet, ((),))"),
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

#: The test run each fault must fail: fast, without the timing criteria,
#: and without the check that each fault's old text occurs once in src/,
#: which fails on every planted copy and so would kill every fault.
PYTEST = [
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_mutants.py::test_every_fault_patches_one_place_in_src",
    "--deselect", "tests/test_acceptance.py::test_c2_scaling_shape",
    "--deselect", "tests/test_acceptance.py::test_c3_relative_speedup",
    "--deselect", "tests/test_acceptance.py::test_c8_resolve_scales_linearly",
]


def occurrences(old: str, root: Path = ROOT) -> dict[Path, int]:
    """The files under ``root/src`` that hold ``old``, with its count in each."""
    found = {}
    for path in sorted((root / "src").rglob("*.py")):
        count = path.read_text(encoding="utf-8").count(old)
        if count:
            found[path] = count
    return found


def plant(root: Path, old: str, new: str) -> Path:
    """Replace the one occurrence of ``old`` under ``root/src`` by ``new``,
    and return the file it was in."""
    found = occurrences(old, root)
    if list(found.values()) != [1]:
        raise SystemExit(f"{old!r} occurs {sum(found.values())} times in src/, not once")
    (path,) = found
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return path


def run_order(patched: Path, root: Path = ROOT) -> list[str]:
    """The test paths pytest runs for a fault in ``patched``, a module under
    ``root/src``: the module's own test file first (``x.py``:
    ``tests/test_x.py``), then the other test files and ``perfbench``, in
    the order pytest collects its ``testpaths``.  No paths for a module
    with no test file of its own, which runs the whole suite in that
    order.  (Pytest merges a file into a directory named beside it, so
    each file is named.)"""
    own = root / "tests" / f"test_{patched.stem}.py"
    if not own.is_file():
        return []
    rest = sorted(path for path in (root / "tests").glob("test_*.py") if path != own)
    return [path.relative_to(root).as_posix() for path in (own, *rest)] + ["perfbench"]


def fails(old: str | None = None, new: str = "") -> bool:
    """Whether the tests fail on a copy of the tree, with the fault ``old``
    → ``new`` planted (none when ``old`` is None)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks",
            "*.egg-info"))
        paths = [] if old is None else run_order(plant(tree, old, new), tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        run = subprocess.run([sys.executable, *PYTEST, *paths], cwd=tree, env=env,
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
