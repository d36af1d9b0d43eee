"""The weak contraction check that fitted each functional through two 2-point sets, kept as a reference.

``reference_check_weak_contraction`` builds, for every functional ``w``,
the sets ``{0, <w,Y>}`` (source) and ``{0, <w,X>}`` (image) and runs them
through :func:`procsup.contraction.fit_min_C`.  A zero source row, which
such a set cannot hold twice, gets its own branch with the margin
``<w,X> . <w,X>``.  The coefficient-row check must give the same report,
except that this margin may differ from the fitter's squared norm in the
last bits, and that a coefficient row overflowing float64 raises the set's
:class:`ValidationError` here but the fitter's :class:`ParameterError` there.
"""

import numpy as np

from procsup.contraction import ContractionReport, MappedPair, fit_min_C
from procsup.core import FiniteSet
from procsup.oleszkiewicz import _check_sysmatch


def reference_check_weak_contraction(x_sys, y_sys, funcs, p_max=None):
    _check_sysmatch(x_sys, y_sys, funcs)
    if p_max is None:
        p_max = x_sys.terms
    per_functional = []
    worst_report = None
    worst_index = -1
    for k, w in enumerate(funcs.matrix):
        a = x_sys.matrix @ w
        b = y_sys.matrix @ w
        if not a.any():
            per_functional.append(1.0)
            continue
        if not b.any():
            margin = float(np.dot(a, a))
            report = ContractionReport(None, p_max, (0, 1, 0), margin, "weak-coefficients")
            per_functional.append(None)
            worst_report, worst_index = report, k
            break
        zero = np.zeros_like(a)
        source = FiniteSet(name=f"w{k}-source", points=np.stack([zero, b]))
        image = FiniteSet(name=f"w{k}-image", points=np.stack([zero, a]))
        pair = MappedPair(source=source, image=image, correspondence=(0, 1), map_label="weak-coefficients")
        report = fit_min_C(pair, p_max=p_max)
        per_functional.append(report.c_star)
        if report.c_star is None:
            worst_report, worst_index = report, k
            break
        if worst_report is None or report.c_star > (worst_report.c_star or 0.0):
            worst_report, worst_index = report, k
    if worst_report is None:
        worst_report, worst_index = ContractionReport(1.0, p_max, (0, 1, 0), 0.0, "weak-coefficients"), 0
    context = {
        "worst_functional": worst_index,
        "functional": funcs.matrix[worst_index].tolist(),
        "per_functional_c": ["infeasible" if c is None else c for c in per_functional],
    }
    return ContractionReport(
        c_star=worst_report.c_star,
        p_max=worst_report.p_max,
        worst_pair=worst_report.worst_pair,
        margin=worst_report.margin,
        map_label="weak-coefficients",
        context=context,
    )
