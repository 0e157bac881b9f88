"""Command-line entry point mapping each verifiable claim to a runnable check.

Every check emits one line-delimited JSON report on stdout and a
one-line human summary on stderr (suppressed by --json-only).  Exit code
0 means no check failed, 1 means a verification failure, 2 a usage error.
Run as a program (run(), the console script), a command whose stdout
reader has gone, as with `| head`, stops at the first write that fails and
exits 141 (128 + SIGPIPE, as a shell reports it) with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from . import family as family_mod
from . import sporadic as sporadic_mod
from . import x13
from .fields import PrimeField
from .hyperelliptic import (count_points, is_smooth_mod_p, mod_p_residues,
                            points_mod_p, search_rational_points)
from .polynomials import enumerate_rationals
from .reports import EVIDENCE, FAIL, PASS, ReportSink

# lets bare negative numbers like -4/13 or -0.5 pass as option values, for _fraction to check
_NEGATIVE_RATIONAL = re.compile(r"^-\.?\d")

# the exponent of a decimal such as 1.5e-3, which Fraction would expand in full
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")

MODELS = {
    "d1": x13.D1_MODEL,
    "d2": x13.D2_RAW_MODEL,
    "d2min": x13.D2_MIN_MODEL,
    "x": x13.X13_MODEL,
}

# upper bounds on requested work, each checked at parse time.  A count is
# O(p) and takes well under a second at p = 997; the cap bounds the request.
COUNT_P_CAP = 1000
# a search tries O(height^2) candidates u; at the cap the slowest curves (d2, d2min)
# take about 6 s (2-vCPU VM, Python 3.11.7)
SEARCH_HEIGHT_CAP = 750
# a sweep builds and verifies O(height^2) parameters; at the cap it takes 0.4 to 0.7 s
# in process on the same machine
SWEEP_HEIGHT_CAP = 36
# the fingerprint tests every prime below the bound; its cost grows faster than the
# bound.  verify-all and `sporadic verify` use the default bound.
FINGERPRINT_BOUND = 1000
FINGERPRINT_BOUND_CAP = 10000
# a rational --t or --value reaches rational_roots, which lifts roots modulo one
# prime, so its cost grows with the digits of the value, not with their divisors;
# at the cap each command takes a few ms (`family verify --t 1000000/999999`
# about 4 ms on the same machine)
RATIONAL_HEIGHT_CAP = 10**6

SIEVE_PRIMES = (3, 7, 11)
JACOBIAN_PRIMES = (3, 5, 7, 11, 19, 23)

CLAIMS = {
    "x13.points": "the six rational points satisfy the model of the genus-2 modular curve, two of them at infinity",
    "family.w_disc": "the w-cubic has discriminant t^4*(t^4-t^3+5t^2+t+1)^2",
    "family.sweep": "each family member up to the given height has a point of order 13 over a cyclic cubic field",
    "family.instance": "the family member at this parameter has a point of order 13 over a cyclic cubic field",
    "fiber.disc.y": "the x-discriminant of the y-map fiber equals d1(y) up to a square factor",
    "fiber.disc.t": "the x-discriminant of the (y+1)/x-map fiber equals d2(t) up to a square factor",
    "fiber.classify": "fiber type above one rational value (ramified / split / cyclic)",
    "search.d1": "rational points on the curve s^2 = d1(y) up to the given height",
    "search.d2": "rational points on the curve s^2 = t(t+1)(-4t^5+5t^4-t^3-25t^2-23t-4) up to the given height",
    "search.d2min": "rational points on the minimal model of the genus-3 discriminant curve",
    "search.x": "rational points on the modular-curve model up to the given height",
    "search.d1.expected": "exactly five rational points at height 100 on s^2 = d1(y)",
    "search.d2.expected": "exactly three rational points at height 100 on the genus-3 curve",
    "sieve.d1": "residues of the found points against all points of the reduced curve at good primes",
    "count.d2min.2": "the minimal model has exactly three points over F_2",
    "smooth.d2min.2": "the minimal model of the genus-3 curve has good reduction at 2",
    "jacobian.19": "19 divides the Jacobian order of the modular curve over F_p at good primes",
    "count": "point count of the reduced curve over F_p",
    "sporadic.minimal_polynomial_irreducible": "x^3 - x^2 - 82x + 64 is irreducible over Q",
    "sporadic.polynomial_discriminant": "disc(x^3 - x^2 - 82x + 64) = 1482^2 and 1482^2/247^2 is a perfect square",
    "sporadic.curve_nonsingular": "the Tate-form curve over Q(alpha) is nonsingular",
    "sporadic.origin_has_order_13": "the point (0,0) on the sporadic curve has order exactly 13",
    "sporadic.j_invariant_irrational": "the sporadic curve's j-invariant is not rational",
    "sporadic.fingerprint": "the fiber cubic above -4/13 splits mod p exactly like the field cubic at every tested prime",
}


def _check_x13_points():
    bad = [pt for pt in x13.X13_RATIONAL_POINTS if not x13.X13_MODEL.satisfies(pt)]
    infinity = x13.X13_MODEL.points_at_infinity()
    ok = not bad and len(infinity) == 2
    return (PASS if ok else FAIL), {
        "points": x13.X13_RATIONAL_POINTS,
        "points_at_infinity": len(infinity),
        "violations": bad,
    }


def _check_w_disc():
    ok = family_mod.verify_w_disc_identity()
    return (PASS if ok else FAIL), {
        "target": family_mod.w_cubic_discriminant_target(),
    }


def _check_family_sweep(height: int, emit=lambda _line: None):
    """Build and verify each nonzero parameter once; `emit` gets one line per parameter."""
    checked = 0
    failures = []
    for t in enumerate_rationals(height):
        if t == 0:
            continue
        instance = family_mod.build_family_instance(t)
        outcome = family_mod.verify_family_instance(instance)
        checked += 1
        emit(_family_details(instance, outcome))
        if not outcome.passed:
            failures.append(outcome)
    return (PASS if not failures else FAIL), {
        "height": height,
        "parameters_checked": checked,
        "failures": failures,
    }


def _family_details(instance, outcome) -> dict:
    return {
        "t": instance.t,
        "A": instance.a_value,
        "B": instance.b_value,
        "disc": instance.disc_w,
        "disc_is_square": outcome.disc_is_square,
        "order": outcome.order,
        "status": instance.status,
    }


def _check_family_instance(t: Fraction):
    instance = family_mod.build_family_instance(t)
    outcome = family_mod.verify_family_instance(instance)
    return (PASS if outcome.passed else FAIL), _family_details(instance, outcome)


def _check_search(curve: str, height: int, emit):
    """One line per found point, then a report with the count."""
    points = search_rational_points(MODELS[curve], height)
    for pt in points:
        emit(pt)
    return PASS, {"curve": curve, "height": height, "count": len(points)}


def _check_expected_search(curve: str, height: int, points, expect: int):
    return (PASS if len(points) == expect else FAIL), {
        "curve": curve,
        "height": height,
        "count": len(points),
        "points": points,
        "expected_count": expect,
    }


def _check_d1_sieve(points, height: int):
    """Consistency certificate at good primes: every found point reduces onto
    the reduced curve; residue classes with no found point are recorded as
    unfilled (their emptiness over Q rests on methods outside this artifact)."""
    if points is None:
        raise RuntimeError("no d1 points: the search of search.d1.expected did not complete")
    model = MODELS["d1"]
    per_prime = {}
    consistent = True
    for p in SIEVE_PRIMES:
        if not is_smooth_mod_p(model, p):
            consistent = False
            per_prime[str(p)] = {"good_reduction": False}
            continue
        residues = mod_p_residues(points, p)
        everything = points_mod_p(model, p)
        lifted = residues <= everything
        consistent = consistent and lifted
        per_prime[str(p)] = {
            "good_reduction": True,
            "curve_points_mod_p": len(everything),
            "classes_with_found_point": len(residues),
            "unfilled_classes": sorted(everything - residues),
            "found_residues_on_curve": lifted,
        }
    return (EVIDENCE if consistent else FAIL), {
        "height": height,
        "primes": list(SIEVE_PRIMES),
        "per_prime": per_prime,
    }


def _check_count(curve: str, p: int, expect: int | None = None):
    """A count at a prime of bad reduction is reported, but never passes."""
    n = count_points(MODELS[curve], PrimeField(p))
    smooth = is_smooth_mod_p(MODELS[curve], p)
    ok = smooth and (expect is None or n == expect)
    details = {"curve": curve, "p": p, "count": n, "good_reduction": smooth}
    if expect is not None:
        details["expected_count"] = expect
    return (PASS if ok else FAIL), details


def _check_smooth(curve: str, p: int, expect: bool):
    smooth = is_smooth_mod_p(MODELS[curve], p)
    return (PASS if smooth == expect else FAIL), {
        "curve": curve, "p": p, "smooth": smooth,
    }


def _check_jacobian_divisibility(primes):
    table = x13.nineteen_divisibility(primes)
    ok = all(entry["divisible_by_19"] for entry in table.values())
    return (PASS if ok else FAIL), {
        "orders": {str(p): entry["jacobian_order"] for p, entry in table.items()},
        "all_divisible": ok,
    }


def _sporadic_assertion(check):
    passed, detail = check()
    return (PASS if passed else FAIL), {"detail": detail}


def _run_sporadic(sink: ReportSink, fingerprint_bound: int):
    for name, check in sporadic_mod.verify_sporadic():
        sink.run_check(f"sporadic.{name}", functools.partial(_sporadic_assertion, check))

    def fingerprint_check():
        fingerprint = sporadic_mod.fiber_field_evidence(fingerprint_bound)
        sound = (fingerprint.fingerprints_agree
                 and fingerprint.fiber_disc_square
                 and fingerprint.field_disc_square
                 and fingerprint.contrast_first_disagreement is not None)
        return (EVIDENCE if sound else FAIL), fingerprint

    sink.run_check("sporadic.fingerprint", fingerprint_check)


def _run_verify_all(sink: ReportSink):
    d1_points = None  # found inside search.d1.expected, reused by sieve.d1

    def search_d1():
        nonlocal d1_points
        d1_points = search_rational_points(MODELS["d1"], 100)
        return _check_expected_search("d1", 100, d1_points, expect=5)

    sink.run_check("x13.points", _check_x13_points)
    sink.run_check("family.w_disc", _check_w_disc)
    sink.run_check("family.sweep", lambda: _check_family_sweep(5))
    for fiber_map in x13.FiberMap:  # fiber.disc.y, then fiber.disc.t
        sink.run_check(f"fiber.disc.{fiber_map.value}",
                       lambda m=fiber_map: (PASS, x13.verify_disc_identity(m)))
    sink.run_check("search.d1.expected", search_d1)
    sink.run_check("sieve.d1", lambda: _check_d1_sieve(d1_points, 100))
    sink.run_check("search.d2.expected", lambda: _check_expected_search(
        "d2", 100, search_rational_points(MODELS["d2"], 100), expect=3))
    sink.run_check("count.d2min.2", lambda: _check_count("d2min", 2, expect=3))
    sink.run_check("smooth.d2min.2", lambda: _check_smooth("d2min", 2, expect=True))
    sink.run_check("jacobian.19", lambda: _check_jacobian_divisibility(JACOBIAN_PRIMES))
    _run_sporadic(sink, FINGERPRINT_BOUND)


def _fraction(text: str) -> Fraction:
    # a nonzero m * 10^e within the height cap has |e| < len(text) + 6, so the
    # bound refuses none; it is checked on the digits, before 10^e is built
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        bound = 2 * len(text) + 7
        if len(digits) > len(str(bound)) or int(digits or 0) > bound:
            raise argparse.ArgumentTypeError(
                f"exponent must be at most {bound} in absolute value")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")
    if max(abs(value.numerator), value.denominator) > RATIONAL_HEIGHT_CAP:
        raise argparse.ArgumentTypeError(
            f"|numerator| and denominator must be <= {RATIONAL_HEIGHT_CAP}, got {text}")
    return value


def _nonzero_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _int_between(low: int, high: int):
    """argparse type for an integer in [low, high], so bad bounds exit 2 at parse time."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _prime(text: str) -> int:
    """argparse type for a prime p <= COUNT_P_CAP."""
    p = _int_between(2, COUNT_P_CAP)(text)
    try:
        return PrimeField(p).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="torsion13",
        description="Exact verification of the 13-torsion classification data.")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS, so that a leaf command's default does not clear a group's --json-only
    common.add_argument("--json-only", action="store_true", default=argparse.SUPPRESS,
                        help="suppress the human-readable summary on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-all", parents=[common],
                   help="run every check with its default bounds")

    p_family = sub.add_parser("family", parents=[common], help="the one-parameter family")
    family_sub = p_family.add_subparsers(dest="verb", required=True)
    p_fverify = family_sub.add_parser("verify", parents=[common])
    p_fverify._negative_number_matcher = _NEGATIVE_RATIONAL
    p_fverify.add_argument("--t", type=_nonzero_fraction, required=True,
                           help='parameter value as "p/q"')
    p_fsweep = family_sub.add_parser("sweep", parents=[common])
    p_fsweep.add_argument("--height", type=_int_between(1, SWEEP_HEIGHT_CAP), default=5)

    p_fiber = sub.add_parser("fiber", parents=[common], help="fiber classification")
    fiber_sub = p_fiber.add_subparsers(dest="verb", required=True)
    p_classify = fiber_sub.add_parser("classify", parents=[common])
    p_classify._negative_number_matcher = _NEGATIVE_RATIONAL
    p_classify.add_argument("--map", choices=[m.value for m in x13.FiberMap], required=True)
    p_classify.add_argument("--value", type=_fraction, required=True)

    p_search = sub.add_parser("search", parents=[common], help="rational point search")
    p_search.add_argument("--curve", choices=sorted(MODELS), required=True)
    p_search.add_argument("--height", type=_int_between(1, SEARCH_HEIGHT_CAP), default=100)

    p_count = sub.add_parser("count", parents=[common], help="point count mod p")
    p_count.add_argument("--curve", choices=sorted(MODELS), required=True)
    p_count.add_argument("--p", type=_prime, required=True,
                         help=f"a prime <= {COUNT_P_CAP}")

    p_sporadic = sub.add_parser("sporadic", parents=[common], help="the sporadic curve")
    sporadic_sub = p_sporadic.add_subparsers(dest="verb", required=True)
    p_sverify = sporadic_sub.add_parser("verify", parents=[common])
    p_sverify.add_argument("--fingerprint-bound", default=FINGERPRINT_BOUND,
                           type=_int_between(50, FINGERPRINT_BOUND_CAP))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sink = ReportSink(CLAIMS, json_only=getattr(args, "json_only", False))

    if args.command == "verify-all":
        _run_verify_all(sink)
    elif args.command == "family" and args.verb == "verify":
        sink.run_check("family.instance", lambda: _check_family_instance(args.t))
    elif args.command == "family":
        sink.run_check("family.sweep",
                       lambda: _check_family_sweep(args.height, sink.emit_raw))
    elif args.command == "fiber":
        sink.run_check("fiber.classify", lambda: (
            PASS, x13.classify_fiber(x13.FiberMap(args.map), args.value)))
    elif args.command == "search":
        sink.run_check(f"search.{args.curve}",
                       lambda: _check_search(args.curve, args.height, sink.emit_raw))
    elif args.command == "count":
        sink.run_check("count", lambda: _check_count(args.curve, args.p))
    elif args.command == "sporadic":
        _run_sporadic(sink, args.fingerprint_bound)

    if not sink.json_only:
        print(sink.summary_line(), file=sys.stderr)
    return 1 if sink.failed else 0


# the exit code when stdout is a pipe closed by its reader: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


def run() -> int:
    """main() on the process arguments, as a program: the console entry point."""
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the unflushed output goes to devnull, so that the flush at exit
        # raises no second BrokenPipeError (as the Python signal docs advise)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
