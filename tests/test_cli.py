import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from algseries import (DFAO, GF, TruncSeries1, cli, diagrat, extract,
                       from_json, roots, to_json)
from algseries.algebra import fields
from algseries.cli import build_parser, main, parse_field_spec
from algseries.diagrat import DIAGONAL_ORDER_LIMIT
from algseries.extract import EXTRACT_ORDER_LIMIT
from algseries.errors import AlgSeriesError

from conftest import thue_morse

TM_POLY = "(1+X)^3*Y^2+(1+X)^2*Y+X"

TM_JSON = """{
  "q": 2, "arity": 1, "digit_order": "lsd",
  "field": {"kind": "prime", "p": 2},
  "initial": 0,
  "transitions": [[0, 1], [1, 0]],
  "outputs": ["0", "1"]
}
"""

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# argv of the diagonal runs whose stdout tests/data/diagonal_golden.json holds
DIAGONAL_GOLDEN = {
    "catalan_q": ["diagonal", "--field", "Q", "--from-poly", "X + Y^2 - Y",
                  "-n", "40"],
    "quartic_f8": ["diagonal", "--field", "F8", "--from-poly",
                   "X + Y^2 + X*Y^3 - Y", "-n", "64"],
    "generator_f8": ["diagonal", "--field", "F8", "--from-poly",
                     "t*X + Y^2 + (1+t)*X*Y^3 - Y", "-n", "64"],
    "thue_morse_f2": ["diagonal", "--field", "F2", "--from-poly", TM_POLY,
                      "-n", "64"],
    "fractions_q": ["diagonal", "--field", "Q", "--num", "1 + X*Y^2",
                    "--den", "2 - X - 3*Y + X^2*Y", "-n", "12"],
}

# argv of the roots runs whose stdout, exit code and --json/--dot branch
# files tests/data/roots_golden.json holds
ROOTS_GOLDEN = {
    "five_state_f2": ["roots", "--field", "F2", "--poly", "Y^2+(1+X)*Y+X^2"],
    "ten_state_f5": ["roots", "--field", "F5", "--poly", "Y^2+(1+X)*Y+X^2"],
    "artin_schreier_f4": ["roots", "--field", "F4", "--poly", "Y^2+Y+X"],
    "generator_f9": ["roots", "--field", "F9", "--poly",
                     "(1+2*t)*Y + X^2 + (2+2*t)*X^3*Y^2"],
}

# argv of the roots runs with large closures (462 states over F4, 736 over
# F9) whose stdout, stderr and exit code at -n 64 are in
# tests/data/roots_large_golden.json
ROOTS_LARGE_GOLDEN = {
    "closure_462_f4": ["roots", "--field", "F4", "--poly",
                       "(1+t)*X^2 + Y^2 + Y^3 + X*Y^3 + X^3*Y^2"],
    "closure_736_f9": ["roots", "--field", "F9", "--poly",
                       "Y + 2*t*X^2 + X^2*Y + (2+t)*X^3*Y^2"],
}

# annihilate inputs and outputs: the branch automata of the automata-Fq
# benchmark's roots jobs (roots0-4, five) and its kernel automata
# (kernel0-4) at seed 1, the unminimized 9-state F2 automaton of
# (X^2+Y^2)/(1+X+X^2+Y^2), and branch 0 of roots over F3 of
# Y^2+(1+X)*Y+X^2.  The kernel automata are as kernel --diagonal wrote them
# while it kept the (r, r) rows of the closure under all digit pairs; the
# diagonal closure has fewer states (7 for the F2 input), and they minimize
# to the same automata.
with open(os.path.join(DATA, "annihilate_golden.json")) as _handle:
    ANNIHILATE_GOLDEN = json.load(_handle)

# extract runs with their argv: the extract jobs of the extract-Q (q0-q9)
# and series-Fq (fq0-fq2) benchmark workloads at seed 1, two text-format
# runs over Q, one input that breaks a hypothesis, and three --check runs
# over Q for the packed integer sweep: mixed denominators (lcm 105), large
# integer coefficients, and alternating signs (negative slots throughout)
with open(os.path.join(DATA, "extract_golden.json")) as _handle:
    EXTRACT_GOLDEN = json.load(_handle)


# kernel runs with their argv, stdout and the sha256 of their --json file:
# digit pairs over F2, F3, F8 and F9, and --diagonal over F5, F8 and F9,
# among them the 6345-state F5 diagonal closure
with open(os.path.join(DATA, "kernel_golden.json")) as _handle:
    KERNEL_GOLDEN = json.load(_handle)


@pytest.fixture
def tm_file(tmp_path):
    path = tmp_path / "tm.json"
    path.write_text(TM_JSON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldSpec:
    def test_specs(self):
        assert parse_field_spec("Q").kind == "rationals"
        assert parse_field_spec("F2").order == 2
        assert parse_field_spec("F4").order == 4
        assert parse_field_spec("F4:t^2+t+1").order == 4
        assert parse_field_spec("F3^2:t^2+1").order == 9
        assert parse_field_spec("F2^3").order == 8

    def test_bad_specs(self):
        for spec in ("F6", "G2", "F", "F4:t^2"):
            with pytest.raises(AlgSeriesError):
                parse_field_spec(spec)

    def test_large_prime_field(self, capsys):
        # 2^61 - 1 is prime: trial division up to its square root never ended
        start = time.perf_counter()
        code, out, _ = run(capsys, "extract", "--field", "F2305843009213693951",
                           "--poly", "X+Y^2", "-n", "4")
        assert code == 0 and out.splitlines()[-1] == "4\t5"
        assert time.perf_counter() - start < 1.0

    def test_huge_prime_field_size_exit_2(self, capsys):
        # no prime factor up to 37, past the exact primality bound: taking a
        # k-th root for every bit of q first ran for 14 s at 4000 digits
        start = time.perf_counter()
        code, _, err = run(capsys, "extract", "--field", f"F{10 ** 4000 + 1}",
                           "--poly", "X+Y^2")
        assert code == 2 and "cannot certify" in err
        assert time.perf_counter() - start < 1.0

    def test_pseudoprime_characteristic_exit_2(self, capsys):
        code, _, err = run(capsys, "extract", "--field",
                           "F3317044064679887385961981", "--poly", "X+Y^2")
        assert code == 2 and "cannot certify" in err

    @pytest.mark.parametrize("spec", ["F2^40", "F3^200:t^200+2*t+1", "F3^7",
                                      "F2^20000", "F3^100000000"])
    def test_extension_over_table_cap_exit_2(self, capsys, spec):
        # the cap is checked before any modulus search or irreducibility
        # test, and before p^k is formed
        start = time.perf_counter()
        code, _, err = run(capsys, "extract", "--field", spec, "--poly", "X+Y^2")
        assert code == 2 and "exceeds table cap 1024" in err
        assert time.perf_counter() - start < 1.0

    def test_power_of_prime_power_exit_2(self, capsys):
        # F<p>^<k> takes a prime p, as a JSON field document does: F4^2
        # read as F16
        code, out, err = run(capsys, "extract", "--field", "F4^2", "--poly",
                             "X+Y^2")
        assert (code, out) == (2, "")
        assert err == "error: 4 is not prime in the field spec 'F4^2'\n"
        assert [parse_field_spec(spec).order
                for spec in ("F4", "F16", "F2^4")] == [4, 16, 16]

    def test_spec_with_modulus_builds_one_field(self, monkeypatch):
        # only the field with the given modulus: no default modulus search
        def no_search(p, k):
            raise AssertionError("modulus search ran")
        monkeypatch.setattr(fields, "_search_modulus", no_search)
        field = parse_field_spec("F3^6:t^6+2*t^4+t^2+2*t+2")
        assert (field.order, field.modulus) == (729, (2, 2, 1, 0, 2, 0, 1))

    @pytest.mark.parametrize("spec", ["F4:t^20000000", "F3^2:t^20000000+1"])
    def test_modulus_degree_checked_first_exit_2(self, capsys, spec):
        # the degree is read off the sparse parse: a dense list of the
        # coefficients of t^20000000 took 3.5 s to build before the check
        start = time.perf_counter()
        code, _, err = run(capsys, "extract", "--field", spec, "--poly", "X+Y^2")
        assert code == 2 and "error: modulus must have degree 2" in err
        assert time.perf_counter() - start < 1.0


class TestExtract:
    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "extract", "--field", "Q",
                           "--poly", "X+Y^2", "-n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["1\t1", "2\t1", "3\t2", "4\t5", "5\t14"]

    def test_single_monomial(self, capsys):
        code, out, _ = run(capsys, "extract", "--field", "F2",
                           "--poly", "X", "-n", "3")
        assert code == 0
        assert out.strip().splitlines() == ["1\t1", "2\t0", "3\t0"]

    def test_hypothesis_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "extract", "--field", "F2", "--poly", "Y")
        assert code == 2
        assert "P'_Y(0,0)" in err

    @pytest.mark.parametrize("args, message", [
        (("--field", "F2", "--poly", "X+Y²"),
         "unexpected character '²' (at offset 3)"),
        (("--field", "F2", "--poly", "X+Y^2+" + "1" * 5000),
         "integer literal of 5000 digits is too long (at offset 6)"),
        (("--field", "F2:t^" + "1" * 5000, "--poly", "X+Y^2"),
         "integer literal of 5000 digits is too long (at offset 2)")])
    def test_bad_literals_exit_2(self, capsys, args, message):
        # int() in the tokenizer raised ValueError on both: exit 1
        code, out, err = run(capsys, "extract", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", ["Q", "F10007"])
    def test_large_product_exit_2(self, capsys, field):
        # each * was a dict product of growing operands: 1.2-1.3 s, exit 0
        poly = "X*(1+X+Y)^30*(1+X+Y)^30*(1+X+Y)^30*(1+X+Y)^30 + Y^2"
        code, out, err = run(capsys, "extract", "--field", field,
                             "--poly", poly, "-n", "3")
        assert (code, out) == (2, "")
        assert err == ("error: product may have more than POWER_TERMS_LIMIT"
                       " = 512 terms (at offset 12)\n")

    def test_order_must_be_positive(self, capsys):
        code, _, err = run(capsys, "extract", "--field", "Q",
                           "--poly", "X+Y^2", "-n", "0")
        assert code == 2 and "order" in err

    def test_order_above_limit_exit_2(self, capsys, monkeypatch):
        # rejected before any work: with both routes of the diagonal that
        # fs_coefficients reads f off, the kernel closure and the sweep,
        # stubbed out to fail, the limit still answers
        # (EXTRACT_ORDER_LIMIT + 1 is below DIAGONAL_ORDER_LIMIT)
        def no_sweep(*args):
            raise AssertionError("sweep ran")

        def no_closure(*args, **kwargs):
            raise AssertionError("closure ran")
        monkeypatch.setattr(diagrat, "anti_diagonals", no_sweep)
        monkeypatch.setattr(diagrat, "rational_kernel", no_closure)
        code, out, err = run(capsys, "extract", "--field", "F2", "--poly",
                             "X+Y^2", "-n", str(EXTRACT_ORDER_LIMIT + 1))
        assert code == 2 and not out
        assert f"above EXTRACT_ORDER_LIMIT = {EXTRACT_ORDER_LIMIT}" in err

    def test_help_states_order_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "above EXTRACT_ORDER_LIMIT = 1024 exits 2" in help_text

    def test_check_flag(self, capsys):
        code, _, err = run(capsys, "extract", "--field", "F3",
                           "--poly", "X+2*Y^2", "-n", "12", "--check")
        assert code == 0
        assert "ok" in err

    def test_check_runs_no_newton_lift(self, capsys, monkeypatch):
        # --check proves the printed series; it extracts nothing again
        def no_lift(*args):
            raise AssertionError("hensel_root ran")

        monkeypatch.setattr(extract, "hensel_root", no_lift)
        monkeypatch.setattr(roots, "hensel_root", no_lift)
        code, _, err = run(capsys, "extract", "--field", "Q", "--poly",
                           "1/3*X - 2/5*X*Y + 3/7*Y^2", "-n", "40", "--check")
        assert code == 0
        assert err == ("check: ok (f_0 = 0 and P(X, f) = f mod X^41: "
                       "f is the fixed point)\n")

    @pytest.mark.parametrize("spec, poly", [
        ("Q", "1/3*X - 2/5*X*Y + 3/7*Y^2"), ("F9", "X + t*Y^2 + X*Y^3")])
    @pytest.mark.parametrize("n", [1, 16, 32])
    def test_check_rejects_a_wrong_coefficient_exit_1(self, capsys, monkeypatch,
                                                       spec, poly, n):
        extract_right = cli.fs_coefficients

        def one_wrong(problem, order):
            coeffs = list(extract_right(problem, order).coeffs)
            coeffs[n] = problem.field.add(coeffs[n], problem.field.one)
            return TruncSeries1(problem.field, coeffs)

        monkeypatch.setattr(cli, "fs_coefficients", one_wrong)
        code, out, err = run(capsys, "extract", "--field", spec, "--poly",
                             poly, "-n", "32", "--check")
        assert code == 1
        assert len(out.splitlines()) == 32  # the wrong series was printed
        assert err == ("check: FAILED (f_0 = 0 and P(X, f) = f mod X^33 do "
                       "not both hold)\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "extract", "--field", "Q",
                           "--poly", "X+Y^2", "-n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["1", "1", "2", "5"]

    @pytest.mark.parametrize("name", sorted(EXTRACT_GOLDEN))
    def test_golden_outputs(self, capsys, name):
        # expected outputs written with the substitution-iteration oracle
        # and the relaxed P^m prune
        want = EXTRACT_GOLDEN[name]
        code, out, err = run(capsys, *want["argv"])
        assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


class TestDiagonal:
    def test_catalan_diagonal(self, capsys):
        code, out, _ = run(capsys, "diagonal", "--field", "Q",
                           "--num", "Y-2*Y^2", "--den", "1-X-Y", "-n", "4")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["0", "1", "1", "2", "5"]

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "diagonal", "--field", "F2",
                           "--num", "1", "--den", "(1+X)*(1+Y)", "-n", "6")
        assert code == 0
        assert all(line.endswith("\t1") for line in out.strip().splitlines())

    def test_from_poly_thue_morse(self, capsys):
        code, out, _ = run(capsys, "diagonal", "--field", "F2",
                           "--from-poly", TM_POLY, "-n", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("num = ") and lines[1].startswith("den = ")
        values = [int(line.split("\t")[1]) for line in lines[2:]]
        assert values == [thue_morse(n) for n in range(8)]

    def test_bad_hypotheses_exit_2(self, capsys):
        code, _, err = run(capsys, "diagonal", "--field", "Q",
                           "--from-poly", "X+Y^2")
        assert code == 2 and "Q_Y" in err

    @pytest.mark.parametrize("source", [["--num", "1", "--den", "1+X+Y"],
                                        ["--from-poly", "X+Y^2-Y"]])
    def test_order_above_limit_exit_2(self, capsys, monkeypatch, source):
        # rejected before any work and before any output: with both routes,
        # the kernel closure and the sweep, stubbed out to fail, the limit
        # still answers
        def no_expansion(*args):
            raise AssertionError("expansion ran")

        def no_closure(*args, **kwargs):
            raise AssertionError("closure ran")
        monkeypatch.setattr(diagrat, "anti_diagonals", no_expansion)
        monkeypatch.setattr(diagrat, "rational_kernel", no_closure)
        code, out, err = run(capsys, "diagonal", "--field", "F2", *source,
                             "-n", str(DIAGONAL_ORDER_LIMIT + 1))
        assert code == 2 and not out
        assert f"above DIAGONAL_ORDER_LIMIT = {DIAGONAL_ORDER_LIMIT}" in err

    def test_help_states_order_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagonal", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "above DIAGONAL_ORDER_LIMIT = 2048 exits 2" in help_text

    @pytest.mark.parametrize("name", sorted(DIAGONAL_GOLDEN))
    def test_golden_json(self, capsys, name):
        # expected stdout written by the cell-by-cell triangle expansion
        code, out, err = run(capsys, *DIAGONAL_GOLDEN[name], "--format", "json")
        assert (code, err) == (0, "")
        with open(os.path.join(DATA, "diagonal_golden.json")) as handle:
            assert out == json.load(handle)[name]


class TestKernel:
    def test_summary_and_files(self, capsys, tmp_path):
        dot = str(tmp_path / "k.dot")
        js = str(tmp_path / "k.json")
        code, out, _ = run(capsys, "kernel", "--field", "F2", "--num", "1",
                           "--den", "1+X+Y", "--dot", dot, "--json", js)
        assert code == 0
        assert "states: 2" in out
        assert "degree bound: 1" in out
        text = open(js).read()
        automaton = from_json(text)
        assert automaton.arity == 2 and automaton.n_states == 2
        assert open(dot).read().startswith("digraph")

    def test_diagonal_flag(self, capsys, tmp_path):
        js = str(tmp_path / "d.json")
        code, out, _ = run(capsys, "kernel", "--field", "F2", "--num", "1",
                           "--den", "1+X+Y", "--json", js, "--diagonal")
        assert code == 0 and "states: 2" in out
        automaton = from_json(open(js).read())
        assert automaton.arity == 1
        assert automaton.generate(8).coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_infinite_field_exit_2(self, capsys):
        code, _, err = run(capsys, "kernel", "--field", "Q", "--num", "1",
                           "--den", "1+X+Y")
        assert code == 2 and "finite" in err

    @pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN))
    def test_golden_outputs(self, capsys, tmp_path, name):
        # pins the state numbering of the --json file
        want = KERNEL_GOLDEN[name]
        path = tmp_path / "k.json"
        code, out, err = run(capsys, *want["argv"], "--json", str(path))
        assert (code, out, err) == (0, want["stdout"], "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            want["json_sha256"]

    def test_byte_stable_outputs(self, capsys, tmp_path):
        paths = [str(tmp_path / f"k{i}.dot") for i in range(2)]
        for path in paths:
            run(capsys, "kernel", "--field", "F2", "--num", "1+X",
                "--den", "1+X+Y^2", "--dot", path)
        assert open(paths[0]).read() == open(paths[1]).read()


class TestAnnihilate:
    def test_thue_morse(self, capsys, tm_file):
        code, out, _ = run(capsys, "annihilate", "--automaton", tm_file)
        assert code == 0
        assert "X*f + (1 + X)*f^2 + (1 + X^4)*f^4 = 0" in out
        assert "verified at order 256" in out

    def test_unminimized_kernel_automaton(self, capsys, tmp_path):
        # kernel --diagonal writes 9 states, over the cap of 8; they
        # minimize to 4, so annihilate must succeed
        path = str(tmp_path / "k.json")
        code, out, _ = run(capsys, "kernel", "--field", "F2",
                           "--num", "1 + X^2 + X*Y^2",
                           "--den", "1 + X*Y + X^2*Y + X^2*Y^2",
                           "--diagonal", "--json", path)
        assert code == 0 and "states: 9" in out
        assert from_json(open(path).read()).minimize().n_states == 4
        code, out, _ = run(capsys, "annihilate", "--automaton", path)
        assert code == 0
        assert "verified at order 256" in out

    def test_outputs_change_along_zero_transition(self, capsys, tmp_path):
        # gen takes this document, so annihilate must too: u_0 = 1 is the
        # output of state 0, but its 0-transition leads to output 0
        path = tmp_path / "a.json"
        path.write_text('{"q": 2, "field": {"kind": "prime", "p": 2}, '
                        '"initial": 0, "transitions": [[1, 0], [1, 1]], '
                        '"outputs": ["1", "0"]}')
        code, out, _ = run(capsys, "annihilate", "--automaton", str(path))
        assert code == 0
        assert out.splitlines()[0].endswith("= 0")
        assert "verified at order 256" in out

    def test_aperiodic_cycle_over_kernel_cap_exit_2(self, capsys, tmp_path):
        # a 3000-cycle with aperiodic outputs stays 3000 states when
        # minimized, over KERNEL_SIZE_CAP = 8
        n = 3000
        rng = random.Random(1)
        automaton = DFAO(2, GF(2), 0, [((s + 1) % n,) * 2 for s in range(n)],
                         [rng.randrange(2) for _ in range(n)])
        assert automaton.minimize().n_states == n
        path = tmp_path / "a.json"
        path.write_text(to_json(automaton))
        code, out, err = run(capsys, "annihilate", "--automaton", str(path))
        assert code == 2 and not out
        assert err == "error: kernel has 3000 states, cap is 8\n"

    def test_wrong_minimization_exit_2(self, capsys, tm_file, monkeypatch):
        # the relation is checked on the series of the automaton as read,
        # not on the minimized one
        ones = DFAO(2, GF(2), 0, [(0, 0)], [1])
        monkeypatch.setattr(DFAO, "minimize", lambda self: ones)
        code, out, err = run(capsys, "annihilate", "--automaton", tm_file)
        assert code == 2 and not out
        assert err.startswith("error: ")

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q": 2}')
        code, _, err = run(capsys, "annihilate", "--automaton", str(bad))
        assert code == 2 and "$." in err

    @pytest.mark.parametrize("name", sorted(ANNIHILATE_GOLDEN))
    def test_golden_outputs(self, capsys, tmp_path, name):
        # expected outputs written by the elimination over F_q(X)
        want = ANNIHILATE_GOLDEN[name]
        path = tmp_path / "automaton.json"
        path.write_text(want["automaton"])
        code, out, err = run(capsys, "annihilate", "--automaton", str(path))
        assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


class TestRoots:
    def test_thue_morse_quadratic(self, capsys, tmp_path):
        js = str(tmp_path / "automata")
        code, out, _ = run(capsys, "roots", "--field", "F2", "--poly", TM_POLY,
                           "-n", "64", "--json", js)
        assert code == 0
        assert "relation: X*f + (1 + X)*f^2 + (1 + X^4)*f^4 = 0" in out
        assert out.count("branch ") == 2
        files = sorted(os.listdir(js))
        assert files == ["branch0.json", "branch1.json"]
        a0 = from_json(open(os.path.join(js, "branch0.json")).read())
        assert a0.n_states == 2

    def test_linear(self, capsys):
        code, out, _ = run(capsys, "roots", "--field", "F2",
                           "--poly", "Y-X", "-n", "16")
        assert code == 0
        assert "branch 0" in out

    def test_seed_has_no_effect(self, capsys):
        argv = ("roots", "--field", "F2", "--poly", TM_POLY, "-n", "32")
        assert run(capsys, *argv) == run(capsys, *argv, "--seed", "7")

    def test_not_squarefree_exit_2(self, capsys):
        code, _, err = run(capsys, "roots", "--field", "F2",
                           "--poly", "Y^2+X^2")
        assert code == 2

    @pytest.mark.parametrize("name", sorted(ROOTS_GOLDEN))
    def test_golden_outputs(self, capsys, tmp_path, name):
        # written by the closure in Ore coordinates, and reproduced by the
        # closure on numerators over P_Y except for the JSON labels, which
        # are now the numerator texts
        with open(os.path.join(DATA, "roots_golden.json")) as handle:
            want = json.load(handle)[name]
        code, out, err = run(capsys, *ROOTS_GOLDEN[name], "-n", "64",
                             "--json", str(tmp_path / "json"),
                             "--dot", str(tmp_path / "dot"))
        assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])
        files = {f"{sub}/{fn}": (tmp_path / sub / fn).read_text()
                 for sub in ("json", "dot") for fn in os.listdir(tmp_path / sub)}
        assert files == want["files"]

    def test_help_states_closure_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "more than CLOSURE_BUDGET = 4096 states exits 2" in help_text

    @pytest.mark.parametrize("order", [1, 8])
    def test_coefficients_line_at_small_order(self, capsys, order):
        # the branch series is certified only to max(n + max deg A_k,
        # q*K + q - 1), 19 and 17 here, but each branch still prints 32
        # coefficients, read off its automaton
        lines = []
        for field, poly in (("F2", TM_POLY), ("F3", "Y^3 - Y + X")):
            code, out, _ = run(capsys, "roots", "--field", field, "--poly",
                               poly, "-n", str(order))
            assert code == 0
            lines += [line.strip() for line in out.splitlines()
                      if line.startswith("  coefficients: ")]
        tail = " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0"
        assert lines == [
            "coefficients: 0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0 1 0 0 1 0 1 1 0 "
            "0 1 1 0 1 0 0 1",
            "coefficients: 1 0 0 1 0 1 1 0 0 1 1 0 1 0 0 1 0 1 1 0 1 0 0 1 "
            "1 0 0 1 0 1 1 0",
            "coefficients: 0 1 0 1 0 0 0 0 0 1" + tail,
            "coefficients: 1 1 0 1 0 0 0 0 0 1" + tail,
            "coefficients: 2 1 0 1 0 0 0 0 0 1" + tail]

    @pytest.mark.parametrize("name", sorted(ROOTS_LARGE_GOLDEN))
    def test_large_closure_outputs(self, capsys, name):
        with open(os.path.join(DATA, "roots_large_golden.json")) as handle:
            want = json.load(handle)[name]
        code, out, err = run(capsys, *ROOTS_LARGE_GOLDEN[name], "-n", "64")
        assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


class TestGen:
    def test_thue_morse_prefix(self, capsys, tm_file):
        code, out, _ = run(capsys, "gen", "--automaton", tm_file, "-n", "7")
        assert code == 0
        assert out.strip() == "0 1 1 0 1 0 0 1"

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--automaton",
                           str(tmp_path / "none.json"))
        assert code == 2

    def test_two_dimensional_kernel_exit_2(self, capsys, tmp_path):
        # kernel without --diagonal writes an automaton over digit pairs
        path = str(tmp_path / "k2d.json")
        code, _, _ = run(capsys, "kernel", "--field", "F2", "--num", "1",
                         "--den", "1+X+Y", "--json", path)
        assert code == 0
        code, out, err = run(capsys, "gen", "--automaton", path, "-n", "8")
        assert code == 2 and not out
        assert "one-dimensional" in err

    @pytest.mark.parametrize("field, message", [
        ({"kind": "prime", "p": 4}, "$.field.p: 4 is not prime"),
        ({"kind": "extension", "p": 4, "k": 2}, "$.field.p: 4 is not prime"),
        ({"kind": "extension", "p": 2, "k": 2, "modulus": "t^20000000"},
         "$.field: modulus must have degree 2"),
        ({"kind": "extension", "p": 5, "k": 1},
         "$.field.k: an extension needs k >= 2")])
    def test_bad_field_document_exit_2(self, capsys, tmp_path, field, message):
        doc = json.loads(TM_JSON)
        doc["field"] = field
        if field["kind"] == "extension":
            doc["outputs"] = [[0], [1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--automaton", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert time.perf_counter() - start < 1.0

    def test_reader_closes_early_exit_141(self, tm_file):
        # 200 KB of output fills the pipe, so the writer is still writing
        # when the reader closes it: exit 141 (128 + SIGPIPE), no message
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "algseries.cli", "gen", "--automaton",
             tm_file, "-n", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(16) == b"0 1 1 0 1 0 0 1 "
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        # main reuses one parser, so no default or namespace of one call may
        # reach the next: each call of this sequence in one process gives
        # what it gives as the first call of a fresh process
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to it
        extract_argv = ["extract", "--field", "F3", "--poly", "X+2*Y^2",
                        "-n", "8"]
        roots_argv = ["roots", "--field", "F2", "--poly", TM_POLY, "-n", "16"]
        calls = [extract_argv + ["--format", "json"], extract_argv,
                 roots_argv + ["--json", "{dir}"], roots_argv,
                 ["extract", "--help"], ["extract", "--field", "F2"],
                 extract_argv]
        env = dict(os.environ, PYTHONPATH=SRC)
        for i, argv in enumerate(calls):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            try:
                code = main([a.replace("{dir}", str(here)) for a in argv])
            except SystemExit as exc:  # --help and argparse errors
                code = exc.code
            captured = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "algseries.cli"]
                + [a.replace("{dir}", str(fresh)) for a in argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert (code, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
            written = [sorted(os.listdir(d)) if d.exists() else None
                       for d in (here, fresh)]
            assert written[0] == written[1], argv
        assert (tmp_path / "here2" / "branch0.json").exists()
