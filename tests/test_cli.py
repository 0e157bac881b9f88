import hashlib
import json
import re
import time

import pytest

from torsion13 import cli, elliptic, family, sporadic, x13
from torsion13.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestSearch:
    def test_d1_height_100_finds_five_points(self, capsys):
        code, out, err = run_cli(capsys, "search", "--curve", "d1", "--height", "100")
        assert code == 0
        lines = json_lines(out)
        points = [l for l in lines if "chart" in l]
        reports = [l for l in lines if "check_id" in l]
        assert len(points) == 5
        assert reports[-1]["details"]["count"] == 5
        assert {p["u"] for p in points} == {"-1/1", "0/1", "-4/13"}

    def test_d2_height_100_finds_three_points(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--curve", "d2", "--height", "100")
        assert code == 0
        points = [l for l in json_lines(out) if "chart" in l]
        assert len(points) == 3
        assert any(p["u"] == "inf" for p in points)

    def test_elapsed_ms_times_the_search(self, capsys, monkeypatch):
        search = cli.search_rational_points

        def slow_search(model, height):
            time.sleep(0.05)
            return search(model, height)

        monkeypatch.setattr(cli, "search_rational_points", slow_search)
        _, out, _ = run_cli(capsys, "search", "--curve", "x", "--height", "3")
        assert json_lines(out)[-1]["elapsed_ms"] >= 50

    def test_point_log_shape(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--curve", "d1", "--height", "5")
        for p in (l for l in json_lines(out) if "chart" in l):
            assert set(p) == {"u", "v", "chart"}


class TestCount:
    def test_d2min_mod_2(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--curve", "d2min", "--p", "2")
        assert code == 0
        report = json_lines(out)[-1]
        assert report["details"]["count"] == 3
        assert report["details"]["good_reduction"] is True
        assert report["status"] == "pass"

    @pytest.mark.parametrize("curve, p", [("x", "13"), ("d1", "2")])
    def test_bad_reduction_never_passes(self, capsys, curve, p):
        code, out, _ = run_cli(capsys, "count", "--curve", curve, "--p", p)
        assert code == 1
        report = json_lines(out)[-1]
        assert report["details"]["good_reduction"] is False
        assert report["status"] == "fail"

    def test_non_prime_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--curve", "d2min", "--p", "4"])
        assert exc.value.code == 2
        assert "--p: modulus 4 is not prime" in capsys.readouterr().err


class TestFiber:
    def test_classify_sporadic_value(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "classify",
                               "--map", "y", "--value", "-4/13")
        assert code == 0
        [report] = json_lines(out)
        assert report["details"]["kind"] == "cyclic_cubic"

    def test_classify_t_map(self, capsys):
        code, out, _ = run_cli(capsys, "fiber", "classify",
                               "--map", "t", "--value", "0")
        assert code == 0
        [report] = json_lines(out)
        assert report["details"]["kind"] == "ramified"

    def test_bad_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fiber", "classify", "--map", "y", "--value", "1/0"])
        assert exc.value.code == 2


class TestFamily:
    def test_verify_single_t(self, capsys):
        code, out, _ = run_cli(capsys, "family", "verify", "--t", "1")
        assert code == 0
        report = json_lines(out)[-1]
        assert report["status"] == "pass"
        assert report["details"]["order"] == 13
        assert report["details"]["A"] == "16/7"
        assert report["details"]["B"] == "92/49"
        assert report["details"]["status"] == "cyclic"
        assert report["details"]["disc_is_square"] is True

    def test_verify_negative_rational_t(self, capsys):
        code, out, _ = run_cli(capsys, "family", "verify", "--t", "-4/7")
        assert code == 0
        assert json_lines(out)[-1]["details"]["order"] == 13

    def test_zero_t_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "verify", "--t", "0"])
        assert exc.value.code == 2
        assert "--t: must be nonzero" in capsys.readouterr().err

    def test_sweep(self, capsys, monkeypatch):
        calls = []
        build = family.build_family_instance

        def counting_build(t):
            calls.append(t)
            return build(t)

        monkeypatch.setattr(family, "build_family_instance", counting_build)
        code, out, _ = run_cli(capsys, "family", "sweep", "--height", "2")
        assert code == 0
        assert len(calls) == 6  # each parameter is built once
        lines = json_lines(out)
        per_t = [l for l in lines if "check_id" not in l]
        assert len(per_t) == 6  # height <= 2, t != 0
        for entry in per_t:
            assert set(entry) == {"t", "A", "B", "disc", "disc_is_square",
                                  "order", "status"}
            assert entry["order"] == 13 and entry["status"] == "cyclic"
        report = lines[-1]
        assert report["details"]["parameters_checked"] == 6
        assert report["details"]["failures"] == []


class TestSporadic:
    def test_verify_emits_one_report_per_assertion(self, capsys):
        for bound in ("50", "99", "100"):  # every accepted bound gives evidence
            code, out, err = run_cli(capsys, "sporadic", "verify",
                                     "--fingerprint-bound", bound)
            assert code == 0, bound
            lines = json_lines(out)
            ids = [l["check_id"] for l in lines]
            assert "sporadic.origin_has_order_13" in ids
            assert "sporadic.fingerprint" in ids
            fingerprint = [l for l in lines if l["check_id"] == "sporadic.fingerprint"][0]
            assert fingerprint["status"] == "evidence"

    def test_claim_refs_nonempty(self, capsys):
        _, out, _ = run_cli(capsys, "sporadic", "verify", "--fingerprint-bound", "60")
        assert all(l["claim_ref"] for l in json_lines(out))

    def test_each_assertion_times_its_own_work(self, capsys, monkeypatch):
        order = sporadic.point_order

        def slow_order(*args, **kwargs):
            time.sleep(0.05)
            return order(*args, **kwargs)

        monkeypatch.setattr(sporadic, "point_order", slow_order)
        _, out, _ = run_cli(capsys, "sporadic", "verify", "--fingerprint-bound", "100")
        elapsed = {l["check_id"]: l["elapsed_ms"] for l in json_lines(out)}
        assert elapsed["sporadic.origin_has_order_13"] >= 50
        assert elapsed["sporadic.minimal_polynomial_irreducible"] < 50

    def test_singular_curve_fails_the_checks_that_read_it(self, capsys, monkeypatch):
        # b = 0 and c = 1 give y^2 = x^3
        monkeypatch.setattr(sporadic, "tate_curve",
                            lambda b, c: elliptic.tate_curve(b - b, c - c + 1))
        code, out, err = run_cli(capsys, "sporadic", "verify",
                                 "--fingerprint-bound", "100")
        assert code == 1
        assert "Traceback" not in err
        reports = {l["check_id"]: l for l in json_lines(out)}
        nonsingular = reports["sporadic.curve_nonsingular"]
        assert nonsingular["status"] == "fail"
        assert nonsingular["details"] == {"detail": "discriminant is zero"}
        for name in ("origin_has_order_13", "j_invariant_irrational"):
            report = reports[f"sporadic.{name}"]
            assert report["status"] == "fail"
            assert report["details"]["error"].startswith("SingularCurveError")
            assert report["details"]["where"].startswith("elliptic.py:")


def counting_search(monkeypatch, fail_on=None):
    """Record the curve model of each search; raise for the model `fail_on`."""
    models = []
    search = cli.search_rational_points

    def wrapped(model, height):
        models.append(model)
        if model is fail_on:
            raise ArithmeticError("search broke")
        return search(model, height)

    monkeypatch.setattr(cli, "search_rational_points", wrapped)
    return models


class TestVerifyAll:
    def test_runs_every_check_and_exits_zero(self, capsys, monkeypatch):
        models = counting_search(monkeypatch)
        code, out, err = run_cli(capsys, "verify-all")
        assert code == 0
        assert models == [x13.D1_MODEL, x13.D2_RAW_MODEL]  # each search once
        reports = json_lines(out)
        assert len(reports) == 17
        assert all(r["status"] in ("pass", "evidence") for r in reports)
        assert all(r["claim_ref"] for r in reports)
        ids = {r["check_id"] for r in reports}
        assert {"family.w_disc", "family.sweep", "fiber.disc.y", "fiber.disc.t",
                "search.d1.expected", "sieve.d1", "search.d2.expected",
                "count.d2min.2", "smooth.d2min.2", "jacobian.19",
                "sporadic.origin_has_order_13"} <= ids
        # human summary on stderr: counts, then the command's total time,
        # which covers every check's elapsed_ms
        summary = err.splitlines()[-1]
        match = re.fullmatch(r"17 checks: (\d+) pass, 0 fail, (\d+) evidence in (\d+) ms",
                             summary)
        assert match, summary
        statuses = [r["status"] for r in reports]
        assert int(match[1]) == statuses.count("pass")
        assert int(match[2]) == statuses.count("evidence")
        assert int(match[3]) >= sum(r["elapsed_ms"] for r in reports)

    def test_failed_d1_search_fails_the_sieve(self, capsys, monkeypatch):
        models = counting_search(monkeypatch, fail_on=x13.D1_MODEL)
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 1
        assert models == [x13.D1_MODEL, x13.D2_RAW_MODEL]
        status = {r["check_id"]: r for r in json_lines(out)}
        assert status["search.d1.expected"]["status"] == "fail"
        assert "search broke" in status["search.d1.expected"]["details"]["error"]
        assert status["sieve.d1"]["status"] == "fail"
        assert "error" in status["sieve.d1"]["details"]
        assert status["search.d2.expected"]["status"] == "pass"


class TestHarness:
    @pytest.mark.parametrize("target, argv", [
        ((cli, "search_rational_points"), ["search", "--curve", "d1", "--height", "5"]),
        ((x13, "classify_fiber"), ["fiber", "classify", "--map", "y", "--value", "1"]),
        ((family, "build_family_instance"), ["family", "sweep", "--height", "2"]),
    ], ids=["search", "fiber-classify", "family-sweep"])
    def test_exception_in_command_is_a_fail_report(self, capsys, monkeypatch,
                                                    target, argv):
        def broken(*args):
            raise ArithmeticError("deliberately broken")

        monkeypatch.setattr(*target, broken)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        report = json_lines(out)[-1]
        assert report["status"] == "fail"
        assert report["details"] == {
            "error": "ArithmeticError: deliberately broken",
            "where": f"test_cli.py:{broken.__code__.co_firstlineno + 1}",
        }

    def test_parser_is_built_once_and_keeps_no_values(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        assert parser.parse_args(["search", "--curve", "d1", "--height", "3"]).height == 3
        assert parser.parse_args(["search", "--curve", "x"]).height == 100

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["search", "--curve", "d1", "--height", "0"], "--height: must be >= 1"),
        (["search", "--curve", "d1", "--height", "-3"], "--height: must be >= 1"),
        (["family", "sweep", "--height", "0"], "--height: must be >= 1"),
        (["search", "--curve", "d1", "--height", str(cli.SEARCH_HEIGHT_CAP + 1)],
         f"--height: must be <= {cli.SEARCH_HEIGHT_CAP}"),
        (["family", "sweep", "--height", str(cli.SWEEP_HEIGHT_CAP + 1)],
         f"--height: must be <= {cli.SWEEP_HEIGHT_CAP}"),
        (["count", "--curve", "x", "--p", "1009"], "--p: must be <= 1000"),
        (["count", "--curve", "x", "--p", "2147483647"], "--p: must be <= 1000"),
        (["sporadic", "verify", "--fingerprint-bound", "49"],
         "--fingerprint-bound: must be >= 50"),
        (["sporadic", "verify", "--fingerprint-bound", "10001"],
         "--fingerprint-bound: must be <= 10000"),
        (["family", "verify", "--t", str(cli.RATIONAL_HEIGHT_CAP + 1)],
         f"--t: |numerator| and denominator must be <= {cli.RATIONAL_HEIGHT_CAP}"),
        (["family", "verify", "--t", "1000000007"],
         f"--t: |numerator| and denominator must be <= {cli.RATIONAL_HEIGHT_CAP}"),
        (["fiber", "classify", "--map", "y", "--value",
          f"-1/{cli.RATIONAL_HEIGHT_CAP + 1}"],
         f"--value: |numerator| and denominator must be <= {cli.RATIONAL_HEIGHT_CAP}"),
        (["fiber", "classify", "--map", "y", "--value", "10000000000000061"],
         f"--value: |numerator| and denominator must be <= {cli.RATIONAL_HEIGHT_CAP}"),
        (["family", "verify", "--t", "1e10000000"],
         "--t: exponent must be at most 27 in absolute value"),
        # a minus and a digit make a value for _fraction to refuse; a minus and a letter do not
        (["family", "verify", "--t", "-1/0"], "--t: not a rational: '-1/0'"),
        (["family", "verify", "--t", "-x"], "--t: expected one argument"),
    ], ids=["search-0", "search-negative", "sweep-0", "search-cap+1", "sweep-cap+1",
            "count-1009", "count-2^31-1",
            "fingerprint-49", "fingerprint-10001",
            "t-cap+1", "t-1000000007", "value-denominator-cap+1", "value-10^16",
            "t-1e10000000", "t--1/0", "t--x"])
    def test_out_of_range_bound_exits_2_before_any_work(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["family", "verify", "--t", str(cli.RATIONAL_HEIGHT_CAP)],
        ["family", "verify", "--t", f"-999983/{cli.RATIONAL_HEIGHT_CAP}"],
        ["fiber", "classify", "--map", "t", "--value", f"{cli.RATIONAL_HEIGHT_CAP}/999983"],
    ], ids=["t-cap", "t-prime/cap", "value-cap/prime"])
    def test_rational_at_the_height_cap_is_accepted(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json_lines(out)[-1]["status"] == "pass"

    def test_json_only_suppresses_stderr(self, capsys):
        _, _, err = run_cli(capsys, "count", "--curve", "x", "--p", "3", "--json-only")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["family", "--json-only", "verify", "--t", "3/5"],
        ["fiber", "--json-only", "classify", "--map", "y", "--value", "-4/13"],
        ["sporadic", "--json-only", "verify", "--fingerprint-bound", "100"],
    ], ids=["family", "fiber", "sporadic"])
    def test_json_only_after_a_command_group_suppresses_stderr(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ["family", "verify", "--t", "-0.5"],
        ["family", "verify", "--t", "-1_000/3"],
        ["fiber", "classify", "--map", "y", "--value", "-1.5e1"],
    ], ids=["t-decimal", "t-underscore", "value-exponent"])
    def test_negative_decimal_is_an_option_value(self, capsys, argv):
        def reports(argv):
            code, out, _ = run_cli(capsys, *argv)
            return code, [{k: v for k, v in line.items() if k != "elapsed_ms"}
                          for line in json_lines(out)]

        code, lines = reports(argv)
        assert (code, lines[-1]["status"]) == (0, "pass")
        # the same value joined to its option, as --t=-0.5, is one token to argparse
        assert reports(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == (code, lines)

    def test_reports_parse_and_have_required_fields(self, capsys):
        _, out, _ = run_cli(capsys, "family", "verify", "--t", "2")
        for line in json_lines(out):
            if "check_id" in line:
                assert set(line) == {"check_id", "status", "claim_ref",
                                     "details", "elapsed_ms"}

    def test_determinism_modulo_elapsed(self, capsys):
        def normalized(argv):
            code, out, _ = run_cli(capsys, *argv)
            lines = []
            for obj in json_lines(out):
                obj.pop("elapsed_ms", None)
                lines.append(json.dumps(obj, sort_keys=True))
            return code, lines

        first = normalized(["search", "--curve", "d1", "--height", "30"])
        second = normalized(["search", "--curve", "d1", "--height", "30"])
        assert first == second


class TestFrozenOutput:
    """Stdout is byte-identical from change to change apart from elapsed_ms."""

    @staticmethod
    def digest(out):
        frozen = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
        return hashlib.sha256(frozen.encode()).hexdigest()

    @pytest.mark.parametrize("argv, digest", [
        (["verify-all", "--json-only"],
         "664558a75fb9022d12b2c562f7359ab5959aef85721c261d5d6aefcf0d0a7db8"),
        (["family", "verify", "--t", "3/5", "--json-only"],
         "979cd12aa7ce88d1de2ad40cccce03daf0b03ce36eb229ae9a67a580f6bfc7cc"),
        (["fiber", "classify", "--map", "y", "--value", "-4/13", "--json-only"],
         "ebefbaf4f8cfc9e5f243e601c0e22d14b8abce36cb4f7e5ed3d8e051c77f1790"),
        (["fiber", "classify", "--map", "t", "--value", "0", "--json-only"],
         "5b67bbda4db46f176e2de8080d872add1ce79963822c70e3499fc9e8b75f4ad6"),
        (["search", "--curve", "x", "--height", "5", "--json-only"],
         "ec4e39816e559acd7539a7606408b691d90c0eb3a1c946547fa5354c143fb560"),
        (["count", "--curve", "d2min", "--p", "2", "--json-only"],
         "9ae91d4c20920b0ba8d3970d68f33095fce2ef52d797b6d42ec859d46d953cfb"),
        (["family", "sweep", "--height", "2", "--json-only"],
         "15fd896ca6c6cf9f9bd5c1ee3a5d984c4d8d3cf0d10a6e9fbaeecf31682de1e1"),
        (["sporadic", "verify", "--fingerprint-bound", "100", "--json-only"],
         "de789bdac6aa618d07eca84fe8874262ac20d1ecab9b96d1e71c1401fe9d25ae"),
        # at the height cap, where the coefficients have many divisors
        (["family", "verify", "--t", "1000000/999999", "--json-only"],
         "b3defbb96d188eb4a91d29263cf9316e83e848a6e9dfdb9d4e89f4bad9d1bd92"),
        (["family", "verify", "--t", "-999999/1000000", "--json-only"],
         "a0080b312d64427df876ea1bd3e64a4131bcb8a97f60a55ea436cb071ecb1431"),
        (["fiber", "classify", "--map", "t", "--value", "1000000/999999", "--json-only"],
         "e62733cf1f689b4be5bc88dbe838d92c895bcd4a86c7c82840671a2ad14b4b81"),
    ], ids=["verify-all", "family-verify-3/5", "fiber-y--4/13", "fiber-t-0",
            "search-x-5", "count-d2min-2", "sweep-2", "sporadic-100",
            "family-verify-cap", "family-verify-cap-negative", "fiber-t-cap"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert self.digest(out) == digest

    def test_failing_sweep_digest(self, capsys, monkeypatch):
        """Pins the per-parameter failures entries of the sweep report."""
        monkeypatch.setattr(family, "point_order", lambda *args, **kwargs: 12)
        code, out, _ = run_cli(capsys, "family", "sweep", "--height", "2", "--json-only")
        assert code == 1
        assert self.digest(out) == (
            "b9c4ba9016e1f7bfeff510b3de8b26464eb2fab7d3c95740a4a95329928136eb")
