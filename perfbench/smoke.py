"""Smoke check of the benchmark itself: one op (one cycle) per workload and mode.

    python3 perfbench/smoke.py

For every workload, runs ``run.py --seconds 0`` with tracing off and on and
checks that the result line names exactly the metrics BENCHMARK.json lists
for that mode, with their units, that no op failed and that failed_frac is
printed as 0. Then copies BENCHMARK.json and this directory alone into
``.bench_out/bare`` and checks that the benchmark refuses to run there:
non-zero exit and no result line. Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SmokeFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "0", "--trace", str(trace)], ROOT)
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    expect(bool(lines) and lines[-1].startswith("{"), f"{where}: no result line")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{where}: metrics {sorted(got)} differ from {sorted(units)}")
    expect(result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], where)
    frac = [ln.split() for ln in lines if ln.split()[:1] == ["failed_frac"]]
    expect(bool(frac) and float(frac[0][1]) == 0.0, f"{where}: failed_frac {frac}")
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} ops")


def check_bare() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run([f"{HERE.name}/run.py", "--workload", "pair_cli", "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    last = (proc.stdout.splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"), "ran without the program")
    print(f"ok  bare directory refused (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_workload(spec, workload, trace)
        check_bare()
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
