from pathlib import Path

import pytest

from cuescope.corpus import iter_corpus
from cuescope.rules import load_rules

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def starter_rules_path() -> Path:
    return DATA_DIR / "starter_rules.tsv"


@pytest.fixture(scope="session")
def starter_rules(starter_rules_path):
    return load_rules(starter_rules_path)


@pytest.fixture(scope="session")
def hand_gold_path() -> Path:
    return DATA_DIR / "hand_gold.jsonl"


@pytest.fixture(scope="session")
def hand_gold(hand_gold_path):
    return list(iter_corpus(hand_gold_path))
