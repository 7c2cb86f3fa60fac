"""Spans around the calls into each cuescope module, for the traced run.

The traced run calls ``cuescope.cli.main(["annotate", ...])`` in process
with the names below replaced by timing wrappers, each in the module that
looks it up, so ``find_matches_trie`` and ``resolve_scopes`` nest under
``annotate`` and everything nests under ``cli.main``.  A span's self time
is its duration minus the time its child spans cover; ``cli.main``'s self
time is the command's own glue (argument parsing, ``to_dict``, the
prediction dict, writes).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "cli.main"
ANNOTATE = "engine.annotate"
MATCH = "matcher.find_matches_trie"

#: (module, attribute, span name) for every wrapped call.
TRACED = (
    ("cli", "load_rules", "rules.load_rules"),
    ("cli", "build_trie", "matcher.build_trie"),
    ("corpus", "read_corpus", "corpus.read_corpus"),
    ("corpus", "dumps_record", "corpus.dumps_record"),
    ("cli", "annotate", ANNOTATE),
    ("engine", "find_matches_trie", MATCH),
    ("engine", "resolve_scopes", "engine.resolve_scopes"),
)

#: Per-layer time metric for each span name: its summed self time.
SELF_TIME_METRICS = {
    ROOT_SPAN: "cli.self_ms",
    "rules.load_rules": "rules.load_rules_ms",
    "matcher.build_trie": "matcher.build_trie_ms",
    "corpus.read_corpus": "corpus.read_corpus_ms",
    "corpus.dumps_record": "corpus.dumps_record_ms",
    MATCH: "matcher.find_matches_trie_ms",
    "engine.resolve_scopes": "engine.resolve_scopes_ms",
    ANNOTATE: "engine.annotate_self_ms",
}


class Tracer:
    """Spans in call order; a span's id is its index in ``spans``.

    Each span is ``(name, start_ns, end_ns, parent_id, size)``, where
    ``size`` is the length of a list result, 0 for other results and -1
    when the call raised.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.match_inputs: list = []  # tokens of each find_matches_trie call
        self._open = [-1]

    def wrap(self, name: str, fn):
        spans, open_ids, now = self.spans, self._open, time.perf_counter_ns
        keep = self.match_inputs.append if name == MATCH else None

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_ids[-1]
            open_ids.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, now(), parent, -1)
                open_ids.pop()
                raise
            end = now()
            open_ids.pop()
            spans[sid] = (name, start, end, parent, len(result) if type(result) is list else 0)
            if keep is not None:
                keep(args[1] if len(args) > 1 else kwargs["tokens"])
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, modules: dict):
    """Wrap every name in :data:`TRACED` that exists; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name in TRACED:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(span_name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times_ns(spans) -> dict[str, int]:
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + end - start - child[i]
    return totals


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times in ms and the work counts of one traced pass."""
    selfs = self_times_ns(tracer.spans)
    out = {metric: selfs.get(name, 0) / 1e6 for name, metric in SELF_TIME_METRICS.items()}
    sizes: dict[str, list[int]] = {}
    for name, _, _, _, size in tracer.spans:
        sizes.setdefault(name, []).append(size)
    inputs = tracer.match_inputs
    repeats = sum(1 for prev, cur in zip(inputs, inputs[1:]) if prev == cur)
    out.update({
        "corpus.records": sum(sizes.get("corpus.read_corpus", [])),
        "matcher.calls": len(sizes.get(MATCH, [])),
        "matcher.matches": sum(sizes.get(MATCH, [])),
        "matcher.repeat_share": repeats / len(inputs) if inputs else 0.0,
        "engine.scopes": sum(sizes.get("engine.resolve_scopes", [])),
        "engine.invalid_spans": sizes.get(ANNOTATE, []).count(-1),
    })
    return out


def write_spans(path: Path, spans) -> None:
    """One JSON line per span.  ``record`` is the index of the record
    whose ``annotate`` call the span follows, null before the first."""
    record = -1
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, _) in enumerate(spans):
            if name == ANNOTATE:
                record += 1
            fh.write(json.dumps({
                "id": sid, "name": name, "start_ns": start, "end_ns": end,
                "parent": parent if parent >= 0 else None,
                "record": record if record >= 0 else None,
            }) + "\n")
