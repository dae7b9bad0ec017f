import doctest
from pathlib import Path


def test_readme_quick_start_runs_as_a_doctest():
    # The quick start imports each name from its module, so this also
    # checks that each name it uses is still defined there.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 7
    assert result.failed == 0
