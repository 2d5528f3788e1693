"""The engine mutation guard in ``tools/engine_mutations.py``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("engine_mutations",
                                               ROOT / "tools" / "engine_mutations.py")
engine_mutations = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_mutations)


@pytest.mark.parametrize("mutation", engine_mutations.MUTATIONS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutation):
    # An engine edit that moves a mutation's target fails here, instead of
    # leaving the guard to mutate nothing.
    assert engine_mutations.occurrences(mutation) == 1
