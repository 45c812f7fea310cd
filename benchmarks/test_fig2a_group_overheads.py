"""Fig. 2a — group-operation overheads vs training cost.

Paper claims: training time is linear in data size; secure aggregation and
backdoor detection are quadratic in group size; at realistic group sizes
the group operations rival or exceed training cost.
"""

import numpy as np

from _util import SCALE, run_once
from repro.experiments import fig2a_group_overheads, format_series


def test_fig2a(benchmark):
    result = run_once(benchmark, fig2a_group_overheads, SCALE)
    series = result["series"]
    print("\n" + format_series(series, "x", "seconds", title="Fig 2a: overheads"))

    training = next(v for k, v in series.items() if "training" in k)
    secagg = next(v for k, v in series.items() if "SecAgg" in k)
    backdoor = next(v for k, v in series.items() if "Backdoor" in k)

    # Shapes: training linear, group ops quadratic (good fits).
    assert training["fit"] == "linear" and training["r2"] > 0.85
    assert secagg["fit"] == "quadratic" and secagg["r2"] > 0.85
    # Backdoor detection: constant-dominated at fast-scale sizes (per-call
    # setup plus the linkage kernel's per-merge NumPy overhead), so only
    # the shape is asserted (grows, never shrinks drastically).
    assert backdoor["fit"] == "quadratic"
    assert backdoor["seconds"][-1] >= backdoor["seconds"][0] * 0.9

    # Quadratic coefficient dominates: the largest group size costs far
    # more than linear extrapolation from the smallest would predict.
    xs, ys = np.array(secagg["x"]), np.array(secagg["seconds"])
    linear_extrapolation = ys[0] * xs[-1] / xs[0]
    assert ys[-1] > 2.0 * linear_extrapolation
