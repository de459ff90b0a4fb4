"""The test suite's own settings: a failure must not stop the session."""

import pathlib
import tomllib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(pytester):
    """Reporting a hypothesis failure writes a patch through libcst, whose
    import warns; under the suite's warning filters the session must go on
    to the next test rather than stop with an internal error."""
    with open(PYPROJECT, "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
