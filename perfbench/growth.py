"""Reference figures: growth of three layers as N doubles.

    python3 perfbench/growth.py

Times fs_coefficients over Q (N = 64, 128, 256), hensel_root over F2 on the
Thue-Morse quadratic (N = 1024, 2048, 4096) and series_expand_ratio over Q
on the Furstenberg representation of the same P as fs_coefficients (total
degree 2N for N = 64, 128, 256).  Each size runs once, timed and rescaled
like a benchmark job, and prints raw and rescaled milliseconds and the ratio to the
previous size.  These figures are not part of the benchmark's metrics.
"""

import sys

from run import ROOT, SpeedProbe

sys.path.insert(0, str(ROOT / "src"))

from algseries import (GF, QQ, FixedPointProblem, fs_coefficients,  # noqa: E402
                       furstenberg_rep, hensel_root, parse_poly,
                       series_expand_ratio)

P_TEXT = "X+Y^2+X*Y^3"
THUE_MORSE = "(1+X)^3*Y^2+(1+X)^2*Y+X"


def timed(probes, fn):
    """Raw and rescaled seconds of fn, timed as the benchmark times a job."""
    before = probes.between()
    raw, during, _ = probes.timed(fn)
    return raw, raw * probes.factor(before + during + probes.between())


def main():
    problem = FixedPointProblem(parse_poly(P_TEXT, QQ))
    rep = furstenberg_rep(parse_poly(P_TEXT + "-Y", QQ))
    tm = parse_poly(THUE_MORSE, GF(2))
    cases = [
        (f"fs_coefficients Q {P_TEXT}", (64, 128, 256),
         lambda n: fs_coefficients(problem, n)),
        (f"hensel_root F2 {THUE_MORSE}", (1024, 2048, 4096),
         lambda n: hensel_root(tm, 0, n)),
        (f"series_expand_ratio Q furstenberg({P_TEXT}-Y), total degree 2N",
         (64, 128, 256), lambda n: series_expand_ratio(rep.num, rep.den, 2 * n)),
    ]
    probes = SpeedProbe()
    for title, sizes, fn in cases:
        print(title)
        previous = None
        for n in sizes:
            raw, scaled = timed(probes, lambda: fn(n))
            ratio = f"  x{scaled / previous:.2f}" if previous else ""
            print(f"  N={n:5d}  raw {1000 * raw:9.1f} ms  rescaled {1000 * scaled:9.1f} ms{ratio}")
            previous = scaled


if __name__ == "__main__":
    main()
