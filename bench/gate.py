"""Correctness gate: every CLI command of a pass is checked against answers
frozen here by hand, never against the code under test.

An operation is one CLI command.  It fails if it raised, exited with a code
other than 0, or gave any verdict or answer that differs from the frozen one.
`check_command` returns the command's normalised answer (written into the
benchmark output, so a speed-up that changes an answer shows up as a diff)
and the list of differences from the frozen answers.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Status of each check of `verify-all`.  Frozen from the claims of the paper:
# every exact claim is a proof ("pass"); the mod-p sieve and the splitting
# fingerprint only gather support ("evidence").
VERIFY_ALL_STATUS = {
    "x13.points": "pass",
    "family.w_disc": "pass",
    "family.sweep": "pass",
    "fiber.disc.y": "pass",
    "fiber.disc.t": "pass",
    "search.d1.expected": "pass",
    "sieve.d1": "evidence",
    "search.d2.expected": "pass",
    "count.d2min.2": "pass",
    "smooth.d2min.2": "pass",
    "jacobian.19": "pass",
    "sporadic.minimal_polynomial_irreducible": "pass",
    "sporadic.polynomial_discriminant": "pass",
    "sporadic.curve_nonsingular": "pass",
    "sporadic.origin_has_order_13": "pass",
    "sporadic.j_invariant_irrational": "pass",
    "sporadic.fingerprint": "evidence",
}

# #J(F_p) of the genus-2 model of X_1(13) at the good primes verify-all
# tests; frozen from the divisor-class oracle of the acceptance suite
# (tests/test_acceptance.py::test_nineteen_divisibility).  All are divisible
# by 19, as the paper states.
JACOBIAN_ORDERS = {"3": 19, "5": 19, "7": 57, "11": 133, "19": 513, "23": 399}

# Rational points found by a search, as (u, v, chart) with u = "inf" for the
# chart at infinity.  d1 and d2 are frozen from the acceptance suite at
# height 100 (test_d1_search_and_sieve, test_d2_search_and_reduction); d1
# includes the point above -4/13 that carries the sporadic field.  d2min is
# the minimal model of the genus-3 curve, with the same three points (the
# acceptance suite: three points, in bijection with the three F_2-points).
# x holds the six rational points of X_1(13) listed by the paper: two at
# infinity and (u, v) in {-1, 0} x {-1, 0}.  Every point has height <= 13;
# searches to height 150 gave the same sets when this benchmark was written.
SEARCH_POINTS = {
    "d1": [("-1/1", "0/1", "affine"), ("0/1", "-1/1", "affine"),
           ("0/1", "1/1", "affine"), ("-4/13", "-57/2197", "affine"),
           ("-4/13", "57/2197", "affine")],
    "d2": [("inf", "0/1", "infinity"), ("-1/1", "0/1", "affine"),
           ("0/1", "0/1", "affine")],
    "d2min": [("inf", "0/1", "infinity"), ("-1/1", "0/1", "affine"),
              ("0/1", "0/1", "affine")],
    "x": [("inf", "-1/1", "infinity"), ("inf", "0/1", "infinity"),
          ("-1/1", "-1/1", "affine"), ("-1/1", "0/1", "affine"),
          ("0/1", "-1/1", "affine"), ("0/1", "0/1", "affine")],
}

# The minimal model of the genus-3 curve has exactly three F_2-points
# (acceptance suite, from the brute-force oracle).
COUNT_D2MIN_2 = 3

# Nonzero rationals of height <= 5 that `family.sweep` inside verify-all
# checks: 2 * #{(p, q) in [1, 5]^2 : gcd(p, q) = 1} = 2 * 19.
SWEEP_PARAMETERS = 38

SPORADIC_CHECKS = ("minimal_polynomial_irreducible", "polynomial_discriminant",
                   "curve_nonsingular", "origin_has_order_13",
                   "j_invariant_irrational")


def w_discriminant(t: Fraction) -> Fraction:
    """disc of the w-cubic, t^4 (t^4 - t^3 + 5t^2 + t + 1)^2, from the paper."""
    return t ** 4 * (t ** 4 - t ** 3 + 5 * t ** 2 + t + 1) ** 2


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _expect(errors: list, what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _point_keys(entries) -> list:
    return sorted((p["u"], p["v"], p["chart"]) for p in entries)


def _check_verify_all(argv, reports, errors) -> dict:
    by_id = {r["check_id"]: r for r in reports}
    statuses = {r["check_id"]: r["status"] for r in reports}
    _expect(errors, "report count", len(reports), len(VERIFY_ALL_STATUS))
    _expect(errors, "statuses", statuses, VERIFY_ALL_STATUS)
    details = {cid: by_id.get(cid, {}).get("details", {}) for cid in VERIFY_ALL_STATUS}
    orders = details["jacobian.19"].get("orders")
    _expect(errors, "jacobian orders", orders, JACOBIAN_ORDERS)
    d1 = details["search.d1.expected"]
    _expect(errors, "search.d1 count", d1.get("count"), len(SEARCH_POINTS["d1"]))
    _expect(errors, "search.d1 points", _point_keys(d1.get("points", [])),
            sorted(SEARCH_POINTS["d1"]))
    d2 = details["search.d2.expected"]
    _expect(errors, "search.d2 count", d2.get("count"), len(SEARCH_POINTS["d2"]))
    _expect(errors, "search.d2 points", _point_keys(d2.get("points", [])),
            sorted(SEARCH_POINTS["d2"]))
    count = details["count.d2min.2"].get("count")
    _expect(errors, "count.d2min.2", count, COUNT_D2MIN_2)
    x_points = _point_keys(details["x13.points"].get("points", []))
    _expect(errors, "x13 points", x_points, sorted(SEARCH_POINTS["x"]))
    sweep = details["family.sweep"]
    _expect(errors, "sweep parameters", sweep.get("parameters_checked"), SWEEP_PARAMETERS)
    _expect(errors, "sweep failures", sweep.get("failures"), [])
    agree = details["sporadic.fingerprint"].get("fingerprints_agree")
    _expect(errors, "fingerprints agree", agree, True)
    return {"statuses": statuses, "jacobian_orders": orders,
            "search_counts": [d1.get("count"), d2.get("count")],
            "count_d2min_2": count, "fingerprints_agree": agree}


def _check_search(argv, lines, errors) -> dict:
    curve = argv[argv.index("--curve") + 1]
    points = [line for line in lines if "check_id" not in line]
    reports = [line for line in lines if "check_id" in line]
    keys = _point_keys(points)
    _expect(errors, f"{curve} points", keys, sorted(SEARCH_POINTS[curve]))
    _expect(errors, "report count", len(reports), 1)
    if reports:
        _expect(errors, "check_id", reports[0]["check_id"], f"search.{curve}")
        _expect(errors, "status", reports[0]["status"], "pass")
        _expect(errors, "count", reports[0]["details"].get("count"),
                len(SEARCH_POINTS[curve]))
    return {"curve": curve, "points": keys}


def _check_family(argv, reports, errors) -> dict:
    t = Fraction(argv[argv.index("--t") + 1])
    _expect(errors, "report count", len(reports), 1)
    report = reports[0] if reports else {"details": {}}
    details = report["details"]
    _expect(errors, "check_id", report.get("check_id"), "family.instance")
    _expect(errors, "status", report.get("status"), "pass")
    _expect(errors, "t", details.get("t"), _frac(t))
    _expect(errors, "order", details.get("order"), 13)
    _expect(errors, "field", details.get("status"), "cyclic")
    _expect(errors, "disc", details.get("disc"), _frac(w_discriminant(t)))
    _expect(errors, "disc_is_square", details.get("disc_is_square"), True)
    return {"t": details.get("t"), "order": details.get("order"),
            "status": report.get("status"), "disc": details.get("disc")}


def _check_sporadic(argv, reports, errors) -> dict:
    bound = int(argv[argv.index("--fingerprint-bound") + 1])
    statuses = {r["check_id"]: r["status"] for r in reports}
    want = {f"sporadic.{name}": "pass" for name in SPORADIC_CHECKS}
    want["sporadic.fingerprint"] = "evidence"
    _expect(errors, "statuses", statuses, want)
    fingerprint = next((r["details"] for r in reports
                        if r["check_id"] == "sporadic.fingerprint"), {})
    _expect(errors, "fingerprint bound", fingerprint.get("bound"), bound)
    _expect(errors, "fingerprints agree", fingerprint.get("fingerprints_agree"), True)
    return {"statuses": statuses,
            "fingerprints_agree": fingerprint.get("fingerprints_agree"),
            "compared_primes": fingerprint.get("compared_primes")}


def check_command(argv: list, exit_code, stdout: str, error: str | None = None):
    """(answer, errors) for one command's exit code and stdout."""
    errors = []
    if error is not None:
        return None, [f"raised {error}"]
    _expect(errors, "exit code", exit_code, 0)
    try:
        lines = _lines(stdout)
        reports = [line for line in lines if "check_id" in line]
        if argv[0] == "verify-all":
            answer = _check_verify_all(argv, reports, errors)
        elif argv[0] == "search":
            answer = _check_search(argv, lines, errors)
        elif argv[:2] == ["family", "verify"]:
            answer = _check_family(argv, reports, errors)
        elif argv[:2] == ["sporadic", "verify"]:
            answer = _check_sporadic(argv, reports, errors)
        else:
            raise ValueError(f"no frozen answer for {argv}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, errors + [f"unreadable output: {type(exc).__name__}: {exc}"]
    return answer, errors


def tally(results: list) -> tuple:
    """(attempted, failed, answers, errors) over the results of a pass.

    Each result is a dict with the child's keys argv, exit_code, stdout and
    error; a command counts as failed when check_command finds any error.
    """
    failed = 0
    answers, errors = [], []
    for result in results:
        answer, problems = check_command(result["argv"], result["exit_code"],
                                         result["stdout"], result["error"])
        answers.append(answer)
        if problems:
            failed += 1
            errors.append({"argv": result["argv"], "errors": problems})
    return len(results), failed, answers, errors
