"""The benchmark's output checks accept real CLI output and reject corruptions.

Each test runs one small CLI job (not a workload), checks its real output,
then changes one coefficient, transition or relation coefficient and
expects the check to fail.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from algseries.cli import main  # noqa: E402
from checks import CheckFailed, Field, to_field_poly  # noqa: E402
from run import Result  # noqa: E402
from workloads import F2, F3, F4, F5, poly  # noqa: E402

QQ = Field()


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return Result(rc, out.getvalue(), err.getvalue())


def with_stdout(result, stdout):
    return Result(result.rc, stdout, result.stderr, result.files)


def bump_series(result, index, bump):
    """The result with coefficient ``index`` of its JSON series changed."""
    lines = result.stdout.strip().splitlines()
    values = json.loads(lines[-1])
    values[index] = bump(values[index])
    return with_stdout(result, "\n".join(lines[:-1] + [json.dumps(values)]) + "\n")


def bump_automaton(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def test_extract_over_q_and_catalan():
    terms = poly("X + Y^2 + X*Y^2")
    fpoly = to_field_poly(QQ, terms)
    res = cli("extract", "--field", "Q", "--poly", "X+Y^2+X*Y^2", "-n", "16",
              "--check", "--format", "json")
    checks.check_extract(QQ, fpoly, 16, res)
    with pytest.raises(CheckFailed):
        checks.check_extract(QQ, fpoly, 16, bump_series(res, 5, lambda v: str(int(v) + 1)))
    catalan = to_field_poly(QQ, poly("X + Y^2"))
    res = cli("extract", "--field", "Q", "--poly", "X+Y^2", "-n", "20", "--format", "json")
    checks.check_extract(QQ, catalan, 20, res, catalan=True)
    with pytest.raises(CheckFailed):
        checks.check_extract(QQ, catalan, 20, bump_series(res, 19, lambda v: "0"),
                             catalan=True)


def test_extract_over_extension_field():
    field = Field(3, 2, (1, 0, 1))
    fpoly = to_field_poly(field, poly("X + Y^2 + X*Y^3"))
    res = cli("extract", "--field", field.spec(), "--poly", "X+Y^2+X*Y^3", "-n", "24",
              "--format", "json")
    checks.check_extract(field, fpoly, 24, res)
    with pytest.raises(CheckFailed):
        checks.check_extract(field, fpoly, 24,
                             bump_series(res, 7, lambda v: [(v[0] + 1) % 3, v[1]]))


def test_diagonal_from_poly():
    fpoly = to_field_poly(F5, poly("X + X*Y + Y^2 - Y"))
    res = cli("diagonal", "--field", "F5", "--from-poly", "X+X*Y+Y^2-Y", "-n", "30",
              "--format", "json")
    checks.check_diagonal_from_poly(F5, fpoly, 30, res)
    with pytest.raises(CheckFailed):
        checks.check_diagonal_from_poly(
            F5, fpoly, 30, bump_series(res, 11, lambda v: str((int(v) + 1) % 5)))


def _roots(tmp_path, field, text, n):
    res = cli("roots", "--field", field.spec(), "--poly", text, "-n", str(n),
              "--json", str(tmp_path))
    texts = [p.read_text() for p in sorted(tmp_path.glob("branch*.json"))]
    return res, texts


def test_roots(tmp_path):
    fpoly = to_field_poly(F2, poly("Y^2 + (1+X)*Y + X^2"))
    res, texts = _roots(tmp_path, F2, "Y^2+(1+X)*Y+X^2", 64)
    checks.check_roots(F2, fpoly, 64, res, texts)
    with pytest.raises(CheckFailed):
        checks.check_roots(F2, fpoly, 64, res, texts[:1])

    def swap_transition(doc):
        row = doc["transitions"][doc["initial"]]
        row[1] = (row[1] + 1) % len(doc["transitions"])
    with pytest.raises(CheckFailed):
        checks.check_roots(F2, fpoly, 64, res,
                           [bump_automaton(texts[0], swap_transition)] + texts[1:])


@pytest.mark.parametrize("field,text", [(F2, "Y^2+(1+X)*Y+X^2"), (F4, "Y^2+Y+X")])
def test_annihilate(tmp_path, field, text):
    _, texts = _roots(tmp_path, field, text, 256)
    res = cli("annihilate", "--automaton", str(tmp_path / "branch0.json"))
    checks.check_annihilate(field, texts[0], 256, res)
    corrupt = res.stdout.replace(" = 0", " + X^3*f = 0", 1)
    with pytest.raises(CheckFailed):
        checks.check_annihilate(field, texts[0], 256, with_stdout(res, corrupt))


def test_kernel_diagonal(tmp_path):
    num, den = poly("1"), poly("1 + X + Y")
    path = tmp_path / "d.json"
    res = cli("kernel", "--field", "F3", "--num", "1", "--den", "1+X+Y", "--diagonal",
              "--json", str(path))
    fnum, fden = to_field_poly(F3, num), to_field_poly(F3, den)
    text = path.read_text()
    checks.check_kernel_diagonal(F3, fnum, fden, 256, text, res)

    def change_output(doc):
        doc["outputs"][-1] = str((int(doc["outputs"][-1]) + 1) % 3)
    with pytest.raises(CheckFailed):
        checks.check_kernel_diagonal(F3, fnum, fden, 256,
                                     bump_automaton(text, change_output), res)


def test_gen(tmp_path):
    _, texts = _roots(tmp_path, F4, "Y^2+Y+X", 256)
    res = cli("gen", "--automaton", str(tmp_path / "branch1.json"), "-n", "40")
    checks.check_gen(F4, texts[1], 40, res)
    words = res.stdout.split()
    words[13] = "t" if words[13] != "t" else "0"
    with pytest.raises(CheckFailed):
        checks.check_gen(F4, texts[1], 40, with_stdout(res, " ".join(words) + "\n"))


def test_nonzero_exit_fails_every_check():
    res = cli("extract", "--field", "Q", "--poly", "1+X+Y^2", "-n", "4", "--format", "json")
    assert res.rc == 2
    with pytest.raises(CheckFailed):
        checks.check_extract(QQ, to_field_poly(QQ, poly("1 + X + Y^2")), 4, res)


def test_field_arithmetic_and_convolution():
    f8 = Field(2, 3, (1, 1, 0, 1))
    t = f8.from_t_poly([0, 1])
    assert f8.mul(t, f8.mul(t, t)) == f8.from_t_poly([1, 1])  # t^3 = t + 1
    assert f8.parse_element("1+t") == f8.from_t_poly([1, 1])
    a, b = [1, 2, 0, 4, 3], [4, 4, 1]
    slow = [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b)) % 5
            for k in range(5)]
    assert F5.series_mul(a, b, 4) == slow
