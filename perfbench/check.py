"""Output check for every op, run outside the timed region.

Seed-independent fields (forbidden map, gate counts, routing block,
tolerances, exact probabilities, predicted errors) are compared with the
references in reference.json, recorded at the seed commit, to a relative
1e-9. Keys a reference lacks are ignored, so adding a report field is not a
failure. Seed-dependent fields are checked for internal consistency: each
estimate is count/shots, Wilson bounds are recomputed from the count, each
input passes exactly when its upper bound is below the tolerance, and the
overall verdict (and the CLI exit code) follows from the inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SEEDED_REPORT_KEYS = ("seed", "pass_fraction", "passed")
SEEDED_INPUT_KEYS = ("count", "estimate", "ci_low", "ci_high", "pass")
REL_TOL = 1e-9
# Values such as a homogeneous device's tolerance spread are zero up to
# rounding; compare those absolutely, far below any probability reported.
ABS_TOL = 1e-15


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def seed_free(report: dict) -> dict:
    """A report dict without the fields that depend on the sampling seed."""
    out = {k: v for k, v in report.items() if k not in SEEDED_REPORT_KEYS}
    out["inputs"] = [
        {k: v for k, v in row.items() if k not in SEEDED_INPUT_KEYS}
        for row in report["inputs"]
    ]
    return out


def span_of(report: dict):
    return (report.get("routing") or {}).get("span")


def sweep_reference(doc: dict) -> dict:
    """Per-span references of a rendered distance sweep."""
    return {str(span_of(r)): seed_free(r) for r in doc["reports"]}


def _compare(ref, got, path: str, problems: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object, got {got!r}")
            return
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare(value, got[key], f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected {len(ref)} entries, got {got!r:.200}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _compare(a, b, f"{path}[{i}]", problems)
    elif isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{path}: {got!r} differs from reference {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        problems.append(f"{path}: {got!r} differs from reference {ref!r}")


def wilson(k: int, m: int, confidence: float) -> tuple[float, float]:
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    denom = m + z * z
    center = (k + z * z / 2) / denom
    half = z * math.sqrt(k * (m - k) / m + z * z / 4) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _consistency(r: dict, path: str, problems: list) -> None:
    if r["analytic_only"]:
        verdict = r["predicted_error"] < r["tolerances"]["active"]
        if r["inputs"]:
            problems.append(f"{path}: analytic report lists inputs")
        if r["passed"] is not verdict or r["pass_fraction"] != (1.0 if verdict else 0.0):
            problems.append(f"{path}: analytic verdict does not follow predicted_error")
        return
    shots, conf = r["shots"], r["confidence"]
    flags = []
    for row in r["inputs"]:
        where = f"{path}.inputs[{row['input']}]"
        k = row["count"]
        if not (isinstance(k, int) and 0 <= k <= shots):
            problems.append(f"{where}: count {k!r} outside [0, {shots}]")
            continue
        if not _close(row["estimate"], k / shots):
            problems.append(f"{where}: estimate {row['estimate']!r} is not {k}/{shots}")
        lo, hi = wilson(k, shots, conf)
        if not (_close(row["ci_low"], lo) and _close(row["ci_high"], hi)):
            problems.append(f"{where}: Wilson bounds differ from ({lo!r}, {hi!r})")
        if row["pass"] is not (row["ci_high"] < row["tolerance"]):
            problems.append(f"{where}: pass does not equal ci_high < tolerance")
        flags.append(row["pass"])
    if not flags:
        problems.append(f"{path}: no inputs")
        return
    if r["passed"] is not all(flags):
        problems.append(f"{path}: verdict does not follow the inputs")
    if not _close(r["pass_fraction"], sum(flags) / len(flags)):
        problems.append(f"{path}: pass_fraction does not follow the inputs")


def check_report(r: dict, ref: dict, seed: int, path: str, problems: list) -> None:
    _compare(ref, r, path, problems)
    if r.get("seed") != seed:
        problems.append(f"{path}: seed {r.get('seed')!r}, the op passed {seed}")
    try:
        _consistency(r, path, problems)
    except (KeyError, TypeError) as exc:
        problems.append(f"{path}: malformed report ({exc!r})")


def check_output(out, refs: dict) -> list[str]:
    """Problems found in one op's output; empty when it is correct."""
    if out.error is not None:
        return [out.error]
    problems: list[str] = []
    for key, text in out.docs:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.append(f"{key}: output is not JSON ({exc})")
            continue
        if key == "line_sweep":
            spans = refs[key]
            got = tuple(span_of(r) for r in doc.get("reports", []))
            if got != out.spans:
                problems.append(f"{key}: spans {got} reported, {out.spans} asked for")
            for r in doc.get("reports", []):
                span = span_of(r)
                ref = spans.get(str(span))
                if ref is None:
                    problems.append(f"{key}: no reference for span {span!r}")
                else:
                    check_report(r, ref, out.seed, f"{key}[span {span}]", problems)
        else:
            check_report(doc, refs[key], out.seed, key, problems)
            if out.exit_code is not None and out.exit_code != (0 if doc.get("passed") else 1):
                problems.append(f"{key}: exit code {out.exit_code} does not match the verdict")
    return problems
