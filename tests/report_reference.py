"""An experiment report's dict form, built from the report's fields alone.

`harness` writes a `pbr-experiment` report into fixed templates; the tests
hold its bytes to json.dumps(report_dict(r), indent=2, sort_keys=True).
Nothing here comes from `pbrsim`, so a fault in a piece the writer uses
cannot pass in both: outcome labels come from `format`, a SWAP costs 6 H
and 3 CZ, and the tolerance fields are written out.
"""

BIT_ORDER_NOTE = "qubit 0 is the most significant bit of every outcome index"
# The scalar fields of each model's tolerances, in the report and in the
# `pbr-tolerance` document.
TOLERANCE_FIELDS = (
    "model",
    "d_quantum",
    "d_noisy",
    "eps_tol_ideal",
    "eps_tol_noisy",
    "eps_tol_noisy_spread",
    "eps_dep",
    "eps_dec",
    "eps_dec_cumulative",
)
# One SWAP as three CNOTs, each an H-conjugated CZ.
SWAP_G1, SWAP_G2 = 6, 3


def bit_labels(n: int) -> list[str]:
    """Every n-bit outcome label, qubit 0 leftmost, by index."""
    return [format(x, f"0{n}b") for x in range(2**n)]


def tolerance_dict(t) -> dict:
    return {name: getattr(t, name) for name in TOLERANCE_FIELDS}


def input_rows(r) -> list[dict]:
    """The report's `inputs` entries, one per sampled input."""
    labels = bit_labels(r.n)
    return [
        {
            "ci_high": row.ci_high,
            "ci_low": row.ci_low,
            "count": row.count,
            "estimate": row.estimate,
            "exact_probability": row.exact_probability,
            "forbidden": labels[row.input_index],
            "input": labels[row.input_index],
            "pass": row.passed,
            "tolerance": row.tolerance,
        }
        for row in r.inputs
    ]


def report_dict(r) -> dict:
    labels = bit_labels(r.n)
    routing = None
    if r.span is not None:
        # A span-s placement swaps s - 1 times.
        routing = {
            "placement": list(r.placement),
            "span": r.span,
            "swap_count": r.swap_count,
            "extra_g1": SWAP_G1 * (r.span - 1),
            "extra_g2": SWAP_G2 * (r.span - 1),
        }
    return {
        "kind": "pbr-experiment",
        "bit_order": BIT_ORDER_NOTE,
        "n": r.n,
        "theta": r.theta,
        "alpha": r.alpha,
        "beta": r.beta,
        "model": r.model,
        "shots": r.shots,
        "seed": r.seed,
        "confidence": r.confidence,
        "analytic_only": r.analytic_only,
        "forbidden_map": dict(zip(labels, labels)),
        "gate_counts": {"g1": r.g1, "g2": r.g2},
        "routing": routing,
        "tolerances": {
            "depolarizing": tolerance_dict(r.tol_dep),
            "thermodynamical": tolerance_dict(r.tol_thermo),
            "active": r.active_tolerance,
        },
        "inputs": input_rows(r),
        "mean_forbidden_exact": r.mean_forbidden_exact,
        "predicted_error": r.predicted_error,
        "pass_fraction": r.pass_fraction,
        "passed": r.passed,
    }
