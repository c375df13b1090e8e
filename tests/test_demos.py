import pytest

from .conftest import REPO, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    done = run_python(str(demo))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
