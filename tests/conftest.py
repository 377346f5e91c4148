import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

DATA_DIR = Path(__file__).parent / "data"

# make tests/graphgen.py and tests/gen_fixture.py importable from any test
sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci derandomizes every property, so a failing example
# fails the same way on each rerun; without it, runs use the default profile
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def table_a1_penman() -> str:
    return (DATA_DIR / "table_a1.amr").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def table_a1_doc() -> str:
    return (DATA_DIR / "table_a1.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def published_tables() -> dict:
    return json.loads((DATA_DIR / "published_tables.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_dataset_path() -> Path:
    return DATA_DIR / "fixture_pairs.jsonl"
