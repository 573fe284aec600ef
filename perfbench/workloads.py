"""The benchmark's workloads: seeded lists of algseries CLI invocations.

Each workload is a fixed corpus of problems.  The seed picks, per problem,
a variant that keeps the arithmetic cost unchanged while changing every
output value, so that runs on different seeds measure the same work:

* over Q, the sign variants f -> s_f f(s_x X) (s_x, s_f = +-1), which flip
  the signs of coefficients but never their size;
* over F_p, f -> d f(c X) for units c, d of the prime field (also used over
  F_{p^k}, with c, d restricted to F_p so the polynomials stay readable by
  the CLI's parser);
* for automata, Y -> Y/d on root equations and scaling of the numerator
  of rational functions, which keep the automaton's shape (the X <-> Y
  swap, which keeps the diagonal, is not used: it can change the size of
  the unminimized kernel automaton and with it the cost of annihilate);
* the seed of the randomized closure spot check of ``roots``, and which
  branch of a ``roots`` result goes on through annihilate and gen.

The corpora avoid the inputs on which the program is known to fail or run
away (see CHANGES.md): annihilate on automata with more than 8 states, on
F3 automata of 5 or more states and on F5 diagonal automata.
"""

from dataclasses import dataclass

import checks
from checks import Field, parse_expr, poly_text, to_field_poly

ORDER = 256  # the CLI's default order, used by the automata pipelines


@dataclass
class Job:
    """One CLI invocation and the independent check of its output.

    ``argv`` may contain "{dir}", the round's work directory.  ``outputs``
    names the files or directories (relative to it) the job writes; their
    text is part of the job's result.  ``check(result, workdir)`` raises
    checks.CheckFailed when the output is wrong.
    """

    argv: list
    check: object
    outputs: tuple = ()

    @property
    def name(self):
        return " ".join(self.argv)


def poly(text):
    """{(i, j): int} for an integer polynomial in X and Y."""
    out = {}
    for (x, y, f, t), c in parse_expr(text).items():
        if f or t:
            raise ValueError(f"{text!r} is not a polynomial in X, Y")
        out[(x, y)] = c
    return out


def transform(terms, field, cx=1, dy=1, scale=1):
    """Coefficients c_ab -> scale * cx^a * dy^b * c_ab, reduced into field."""
    out = {}
    for (a, b), c in terms.items():
        v = scale * cx ** a * dy ** b * c
        v = v % field.p if field.p else v
        if v:
            out[(a, b)] = v
    return out


def _units(field, rng):
    """Two seeded units of the prime field and the inverse of the second."""
    if not field.p:
        sx, sf = rng.choice((1, -1)), rng.choice((1, -1))
        return sx, sf, sf
    c, d = rng.randrange(1, field.p), rng.randrange(1, field.p)
    return c, d, pow(d, -1, field.p)


def _fixed_point_variant(terms, field, rng):
    """P' with fixed point d f(cX): P'(X, Y) = d P(cX, Y/d)."""
    c, d, dinv = _units(field, rng)
    return transform(terms, field, cx=c, dy=dinv, scale=d)


def _root_variant(terms, field, rng):
    """Q' with root d phi(cX): Q'(X, Y) = Q(cX, Y/d)."""
    c, d, dinv = _units(field, rng)
    return transform(terms, field, cx=c, dy=dinv)


def extract_job(field, terms, n, catalan=False):
    fpoly = to_field_poly(field, terms)
    return Job(["extract", "--field", field.spec(), f"--poly={poly_text(terms)}",
                "-n", str(n), "--check", "--format", "json"],
               lambda res, _: checks.check_extract(field, fpoly, n, res, catalan))


def diagonal_job(field, terms, n):
    fpoly = to_field_poly(field, terms)
    return Job(["diagonal", "--field", field.spec(),
                f"--from-poly={poly_text(terms)}", "-n", str(n), "--format", "json"],
               lambda res, _: checks.check_diagonal_from_poly(field, fpoly, n, res))


def roots_job(field, terms, out, rng, n=None):
    """roots writing branch JSON files to the directory ``out``."""
    fpoly = to_field_poly(field, terms)
    order = ["-n", str(n)] if n else []
    return Job(["roots", "--field", field.spec(), f"--poly={poly_text(terms)}",
                *order, "--seed", str(rng.randrange(10 ** 6)),
                "--json", "{dir}/" + out],
               lambda res, _: checks.check_roots(
                   field, fpoly, n or ORDER, res,
                   [text for _, text in sorted(res.files.items())]),
               outputs=(out,))


def kernel_job(field, num, den, out):
    fnum, fden = to_field_poly(field, num), to_field_poly(field, den)
    return Job(["kernel", "--field", field.spec(), f"--num={poly_text(num)}",
                f"--den={poly_text(den)}", "--diagonal", "--json", "{dir}/" + out],
               lambda res, _: checks.check_kernel_diagonal(
                   field, fnum, fden, ORDER, res.files[out], res),
               outputs=(out,))


def _automaton_text(workdir, path):
    with open(f"{workdir}/{path}") as handle:
        return handle.read()


def annihilate_job(field, path):
    """annihilate on the automaton JSON at ``path`` in the work dir."""
    return Job(["annihilate", "--automaton", "{dir}/" + path],
               lambda res, wd: checks.check_annihilate(
                   field, _automaton_text(wd, path), ORDER, res))


def gen_job(field, path):
    """gen on the automaton JSON at ``path`` in the work dir."""
    return Job(["gen", "--automaton", "{dir}/" + path],
               lambda res, wd: checks.check_gen(
                   field, _automaton_text(wd, path), ORDER, res))


# -- extract-Q --------------------------------------------------------------

Q_CORPUS = [  # fixed-point problems f = P(X, f) over Q, with their order N
    ("X + Y^2 + X*Y^2", 64),
    ("2*X + Y^2 + X*Y^2", 64),
    ("X + Y^3 + X*Y^2", 64),
    ("X + X*Y + Y^2", 64),
    ("X^2 + X*Y + Y^2", 96),
    ("X + X*Y^2", 128),
    ("X + Y^2 + Y^3", 48),
    ("X + Y^2 + X*Y^3", 64),
    ("X + Y^2 + X^2*Y^3", 64),
]


def extract_q(rng):
    """extract --check and diagonal --from-poly over Q, plus Catalan."""
    field = Field()
    catalan = poly("X + Y^2")
    jobs = [extract_job(field, catalan, 128, catalan=True),
            diagonal_job(field, _minus_y(catalan), 128)]
    for text, n in Q_CORPUS:
        terms = _fixed_point_variant(poly(text), field, rng)
        jobs.append(extract_job(field, terms, n))
        jobs.append(diagonal_job(field, _minus_y(terms), n))
    return jobs


def _minus_y(terms):
    """Q = P - Y, whose root phi(0) = 0 is the fixed point of P."""
    out = dict(terms)
    out[(0, 1)] = out.get((0, 1), 0) - 1
    return out


# -- series-Fq --------------------------------------------------------------

F2, F3, F5 = Field(2), Field(3), Field(5)
F4 = Field(2, 2, (1, 1, 1))
F8 = Field(2, 3, (1, 1, 0, 1))
F9 = Field(3, 2, (1, 0, 1))

THUE_MORSE = "(1+X)^3*Y^2 + (1+X)^2*Y + X"


def series_fq(rng):
    """Long series over finite fields: Hensel lifts, extraction, diagonals."""
    jobs = [
        roots_job(F2, poly(THUE_MORSE), "tm", rng, n=1536),
        roots_job(F3, _y_scaled(poly("Y^3 - Y + X"), F3, rng), "cubic", rng, n=1024),
        roots_job(F4, poly("Y^2 + Y + X"), "artin", rng, n=1024),
    ]
    for field, text, n in ((F5, "X + Y^2 + X*Y^3", 128),
                           (F9, "X + Y^2 + X*Y^3", 128),
                           (F3, "X + X*Y + Y^2", 160)):
        jobs.append(extract_job(field, _fixed_point_variant(poly(text), field, rng), n))
    for field, text, n in ((F8, "X + Y^2 + X*Y^3 - Y", 384),
                           (F5, "X + X*Y + Y^2 - Y", 320),
                           (F2, THUE_MORSE, 384)):
        jobs.append(diagonal_job(field, _root_variant(poly(text), field, rng), n))
    return jobs


# -- automata-Fq ------------------------------------------------------------

ROOTS_CORPUS = [  # squarefree P whose branch automata annihilate quickly
    (F2, "Y^2 + (1+X)*Y + X^2"),
    (F2, THUE_MORSE),
    (F3, "Y^3 - Y + X"),
    (F4, "Y^2 + (1+X)*Y + X^2"),
    (F4, "Y^2 + Y + X"),
]

KERNEL_CORPUS = [  # num/den whose diagonal automata annihilate quickly
    (F2, "1", "1 + X + Y"),
    (F2, "1 + X", "1 + X + Y^2 + X*Y"),
    (F3, "1", "1 + X + Y"),
    (F3, "1", "1 - X - Y - X*Y"),
    (F4, "1 + X", "1 + X + Y"),
]


def _y_scaled(terms, field, rng):
    """P(X, Y/d) d^deg_Y P, whose roots are d times those of P."""
    d = rng.randrange(1, field.p)
    dinv = pow(d, -1, field.p)
    deg = max(b for _, b in terms)
    return transform(terms, field, dy=dinv, scale=d ** deg)


def automata_fq(rng):
    """roots -> annihilate -> gen and kernel --diagonal -> annihilate -> gen.

    gen runs on every branch of a roots result and annihilate on one seeded
    branch, so that most jobs are the short commands a pipeline is made of.
    """
    jobs = []
    for idx, (field, text) in enumerate(ROOTS_CORPUS):
        terms = _y_scaled(poly(text), field, rng)
        out = f"roots{idx}"
        jobs.append(roots_job(field, terms, out, rng))
        branches = len(checks.simple_residue_roots(field, to_field_poly(field, terms)))
        jobs.append(annihilate_job(field, f"{out}/branch{rng.randrange(branches)}.json"))
        jobs += [gen_job(field, f"{out}/branch{b}.json") for b in range(branches)]
    for idx, (field, num, den) in enumerate(KERNEL_CORPUS):
        num = transform(poly(num), field, scale=rng.randrange(1, field.p))
        den = poly(den)
        out = f"kernel{idx}.json"
        jobs += [kernel_job(field, num, den, out), annihilate_job(field, out),
                 gen_job(field, out)]
    jobs.append(roots_job(F5, _y_scaled(poly("Y^2 + (1+X)*Y + X^2"), F5, rng),
                          "five", rng))
    return jobs


WORKLOADS = {
    "extract-Q": extract_q,
    "series-Fq": series_fq,
    "automata-Fq": automata_fq,
}
