import re
from pathlib import Path

from mutants import MUTANTS, ROOT


def test_each_mutation_text_occurs_once_and_names_real_tests():
    # A refactor that moves mutated code must update the register rather
    # than lose the control: each text occurs exactly once in its file,
    # and each named test is defined where the register says.
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        # The package, or a test-side kernel such as the ordered rook DP;
        # never a test module itself.
        assert m.file.startswith(("src/", "tests/")), m.name
        assert not Path(m.file).name.startswith("test_"), m.name
        assert (ROOT / m.file).read_text().count(m.text) == 1, m.name
        assert m.text != m.replacement and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            source = (ROOT / path).read_text()
            assert re.search(rf"^def {name}\(", source, re.M), (m.name, test)
