#!/usr/bin/env python3
"""Accuracy experiment: per-step F scores as rules are added in random
order, averaged over repeated runs with different addition orders.

Gold labels come from the full rule set, so the final step scores 1.0 by
construction and the curve shows how quickly a partial rule set converges.
The data is fixed, as in the acceptance test of the same curve (C6): the
rule set is ``generate rules --seed 7``, and the corpus is generated at
seed 29 with a cue injected into 35% of its sentences.  A bad value ends
the run with one ``error:`` line and exit 3.

Usage::

    python scripts/run_accuracy_ramp.py
    python scripts/run_accuracy_ramp.py --repeats 20 --sentences 1000
"""

import argparse
import statistics
import sys

from cuescope.bench import run_accuracy_ramp, step_schedule
from cuescope.corpus import RULE_SEED, ConfigError, GeneratorConfig, generate_corpus, generate_rules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=int, default=409)
    parser.add_argument("--final", type=int, default=849)
    parser.add_argument("--step", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5,
                        help="independent random addition orders to average")
    parser.add_argument("--sentences", type=int, default=400)
    args = parser.parse_args(argv)

    try:
        counts = step_schedule(args.base, args.final, args.step)
        if args.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        full = generate_rules(RULE_SEED, args.final)
        records = generate_corpus(
            GeneratorConfig(seed=29, sentence_count=args.sentences, cue_injection_rate=0.35),
            full,
        )
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    series: dict[str, dict[int, list[float]]] = {
        name: {count: [] for count in counts} for name in ("negated", "possible", "other")
    }
    for repeat in range(args.repeats):
        steps = run_accuracy_ramp(full, records, base=args.base, step=args.step,
                                  ramp_seed=1000 + repeat)
        for step_result in steps:
            for name in series:
                series[name][step_result.rule_count].append(
                    step_result.report.classes[name].f
                )

    print(f"# {args.repeats} random addition orders, {args.sentences} sentences, "
          f"gold from the full {args.final}-rule set")
    print(f"{'rules':>6}  " + "  ".join(f"{name + ' F (sd)':>22}" for name in series))
    for count in counts:
        cells = [f"{count:>6}"]
        for name in series:
            values = series[name][count]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            cells.append(f"{mean:>15.4f} ({sd:.4f})")
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
