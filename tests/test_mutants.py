"""The mutation list of ``tests/mutants.py`` stays applicable: each
mutant's text occurs exactly once in the file it names, so a change that
rewrites the code under a mutant fails here, not at the next mutation
run."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    text = (ROOT / "src" / "metabelian" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
