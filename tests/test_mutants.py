"""The mutant table in mutants.py still applies to the code it mutates."""

from mutants import AIMS, MUTANTS, ROOT


def test_every_mutant_applies_to_exactly_one_place():
    for file, old, new, aim in MUTANTS:
        assert (ROOT / file).read_text().count(old) == 1, (file, old)
        assert new != old and aim in AIMS, (file, old)
