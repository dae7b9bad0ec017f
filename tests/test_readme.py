import doctest
from pathlib import Path


def test_readme_quick_start_runs_as_a_doctest():
    # The quick start imports through the package's lazy exports, so this
    # also checks that each name it uses still resolves.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 7
    assert result.failed == 0
