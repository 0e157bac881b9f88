"""Property tests of the CLI contract on the commands that take a rational,
a height, a prime or a bound: whatever the value, the exit code is 0, 1 or 2,
every stdout line is JSON, and stderr carries no traceback.  Run as a
program with its stdout reader gone, a command exits 141, again with no
traceback."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")  # installed with the test tools, not declared

from hypothesis import example, given, settings, strategies as st  # noqa: E402

import torsion13  # noqa: E402
from torsion13.cli import main  # noqa: E402

# fixed examples and no example database, so runs repeat and tier-1 stays fast
CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)

NONZERO_RATIONALS = st.fractions(min_value=-10**4, max_value=10**4,
                                 max_denominator=10**4).filter(bool)


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses bad values with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    for line in out.getvalue().splitlines():
        json.loads(line)
    assert "Traceback" not in err.getvalue(), argv


def rational_arg(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@CONTRACT
@given(t=NONZERO_RATIONALS, json_only=st.booleans())
@example(t=Fraction(-999983, 10**6), json_only=False)  # at the height cap
@example(t=Fraction(10**6 + 1), json_only=True)  # past the cap: refused with exit 2
def test_family_verify(t, json_only):
    assert_contract(["family", "verify", "--t", rational_arg(t)]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(mantissa=st.integers(min_value=0, max_value=10**4),
       exponent=st.integers(min_value=-12, max_value=12), json_only=st.booleans())
@example(mantissa=1, exponent=10**7, json_only=True)  # refused before 10**e is built
@example(mantissa=0, exponent=10**8, json_only=True)
def test_family_verify_decimal(mantissa, exponent, json_only):
    assert_contract(["family", "verify", "--t", f"{mantissa}e{exponent}"]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(fiber_map=st.sampled_from(["y", "t"]), value=NONZERO_RATIONALS,
       json_only=st.booleans())
@example(fiber_map="t", value=Fraction(10**6, 999983), json_only=False)  # at the height cap
@example(fiber_map="y", value=Fraction(-1, 10**6 + 1), json_only=True)  # past the cap
def test_fiber_classify(fiber_map, value, json_only):
    assert_contract(["fiber", "classify", "--map", fiber_map, "--value", rational_arg(value)]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(curve=st.sampled_from(["d1", "d2", "d2min", "x"]),
       height=st.integers(min_value=1, max_value=30), json_only=st.booleans())
def test_search(curve, height, json_only):
    assert_contract(["search", "--curve", curve, "--height", str(height)]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(curve=st.sampled_from(["d1", "d2", "d2min", "x"]),
       p=st.integers(min_value=-5, max_value=1100), json_only=st.booleans())
@example(curve="d1", p=2, json_only=False)  # bad reduction: a fail report, exit 1
@example(curve="x", p=997, json_only=False)  # the largest prime under the cap
@example(curve="d2min", p=1009, json_only=True)  # a prime above the cap
def test_count(curve, p, json_only):
    # composites, values below 2 and values above the cap are refused with exit 2
    assert_contract(["count", "--curve", curve, "--p", str(p)]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(height=st.integers(min_value=-3, max_value=8), json_only=st.booleans())
@example(height=0, json_only=False)
@example(height=37, json_only=False)
@example(height=1000, json_only=True)
def test_family_sweep(height, json_only):
    assert_contract(["family", "sweep", "--height", str(height)]
                    + ["--json-only"] * json_only)


@CONTRACT
@given(bound=st.integers(min_value=-5, max_value=300), json_only=st.booleans())
@example(bound=49, json_only=False)  # below the smallest accepted bound
@example(bound=50, json_only=False)  # the smallest accepted bound
@example(bound=10001, json_only=True)  # above the cap
def test_sporadic_verify(bound, json_only):
    assert_contract(["sporadic", "verify", "--fingerprint-bound", str(bound)]
                    + ["--json-only"] * json_only)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_141_without_traceback(unbuffered):
    """As a program, a command whose stdout reader has gone (as with `| head`)
    exits 141 and writes nothing to stderr, whether the write that fails is
    the first print (unbuffered) or the flush after main returns."""
    src = str(pathlib.Path(torsion13.__file__).parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader leaves before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "torsion13.cli", "count", "--curve",
                               "d2min", "--p", "2", "--json-only"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
