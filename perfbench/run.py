"""singfib benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload {audit,derive,forms} --seed N --seconds S --trace {0,1}

A single-threaded closed loop: one caller runs the workload's items (public
singfib calls) one after another.  Each pass runs in a fresh process
(``pass_runner.py``); passes repeat until ``--seconds`` have gone by since
the first one started, and the first pass always runs whole.  Set-up, from
process start to the first item being ready, is measured in SETUP_PROBES
set-up-only processes.  Every time is scaled to the reference speed
(``speed_factor``) before statistics are taken.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it runs one plain and one traced pass and reports the
per-layer metrics.  Every run checks the outputs (``workloads.gate``) and
exits 1 when a check fails.  NOTES.md says why the workloads are these.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("audit", "derive", "forms")
SETUP_PROBES = 7
PASS_TIMEOUT_S = 170
#: the reference chunks timed on either side of an item's own that scale its time
REF_WINDOW = 10
#: the time pass_runner.reference_chunk took on a 2-vCPU x86-64 VM (Python 3.11) at its faster speed
REF_CHUNK_S = 0.0005


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, budget: float, traced: bool = False) -> dict:
    """Start one pass process and wait for it; budget as in pass_runner.py."""
    cmd = [sys.executable, str(HERE / "pass_runner.py"), workload, str(seed), repr(budget), str(int(traced))]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd.append(str(OUT / f"spans-{workload}-seed{seed}.jsonl"))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"a {workload} pass took over {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassError(proc.stderr.strip() or f"pass exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    ready = lines[0]
    return {
        "setup_s": ready["ready"] - spawned,
        "n_items": ready["items"],
        "items": [line for line in lines[1:] if "i" in line],
        "summary": lines[-1],
    }


def metadata(seed: int, records_sha: str) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref[:12]
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
        "records_sha256": records_sha,
    }


def harrell_davis(values: list[float], p: float, steps: int = 8) -> float:
    """The Harrell-Davis estimate of the p-quantile: order statistics weighted by a beta density.

    A single order statistic jumps when the item times have a gap at the
    quantile (the audit median sits at the lower edge of the ``jacobi`` items
    and read either about 21 or about 30 ms on one machine); the weighted
    form moves smoothly.  Weights are the Beta(p(n+1), (1-p)(n+1)) mass of
    each [i/n, (i+1)/n], integrated by Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) if 0 < t < 1 else 0.0

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + steps * h))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def speed_factor(ref_s: list[float]) -> float:
    """REF_CHUNK_S over the median of some reference-chunk times.

    Times multiplied by it read as on a machine that runs the reference
    chunk in REF_CHUNK_S.
    """
    return REF_CHUNK_S / statistics.median(ref_s)


def scaled_items(p: dict) -> list[tuple[int, float]]:
    """(item index, item time times the speed factor of the chunks around it) for one pass."""
    ref = p["summary"]["ref_s"]
    out = []
    for item in p["items"]:
        first, end = item["ref"]
        out.append((item["i"], item["dt"] * speed_factor(ref[max(0, first - REF_WINDOW) : end + REF_WINDOW])))
    return out


def end_to_end(passes: list[dict], probes: list[dict]) -> dict[str, tuple[float, str]]:
    """Times scaled to the reference speed; each item's median over the passes that ran it.

    On a shared VM the machine's speed for this code moved by up to 1.8x
    between runs a few minutes apart and by some 10% within a second, and a
    pass of audit lasts over ten seconds; so each item time is scaled by
    the reference chunks timed around it (``scaled_items``), and each
    set-up time by the chunks its process timed right after set-up.
    """
    times: dict[int, list[float]] = {}
    for p in passes:
        for i, dt in scaled_items(p):
            times.setdefault(i, []).append(dt)
    per_item = [statistics.median(v) for _, v in sorted(times.items())]
    return {
        "wall_s": (sum(per_item), "s"),
        "item_ms.p50": (1000 * harrell_davis(per_item, 0.5), "ms"),
        "item_ms.p90": (1000 * harrell_davis(per_item, 0.9), "ms"),
        "setup_s": (statistics.median(p["setup_s"] * speed_factor(p["summary"]["ref_s"]) for p in probes), "s"),
        "peak_rss_mb": (max(p["summary"]["rss_kb"] for p in passes) / 1024, "MB"),
    }


def unscaled(passes: list[dict], probes: list[dict]) -> dict[str, tuple[float, str]]:
    """The same figures as measured, for reading beside the scaled ones; not gated."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for item in p["items"]:
            times.setdefault(item["i"], []).append(item["dt"])
    return {
        "measured.wall_s": (sum(statistics.median(v) for v in times.values()), "s"),
        "measured.setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "measured.ref_chunk_ms": (1000 * statistics.median(x for p in passes for x in p["summary"]["ref_s"]), "ms"),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    out = {}
    for name, value in traced["summary"]["trace"].items():
        unit = "count" if name.endswith(".calls") else "s" if name.endswith(".self_s") else "ratio"
        out[name] = (value, unit)
    wall = [sum(dt for _, dt in scaled_items(p)) for p in (traced, plain)]
    out["trace.overhead_ratio"] = (wall[0] / wall[1], "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "singfib" / "__init__.py").is_file():
        print(f"perfbench: no singfib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            passes = [run_pass(args.workload, args.seed, 0), run_pass(args.workload, args.seed, 0, traced=True)]
        else:
            probes = [run_pass(args.workload, args.seed, -1) for _ in range(SETUP_PROBES)]
            started = time.monotonic()
            passes = [run_pass(args.workload, args.seed, 0)]
            while (left := args.seconds - (time.monotonic() - started)) > 0:
                passes.append(run_pass(args.workload, args.seed, left))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    n_items = passes[0]["n_items"]
    records = [[item["record"] for item in p["items"]] for p in passes]
    problems = workloads.gate(args.workload, args.seed, records, n_items)
    executions = [item for p in passes for item in p["items"]]
    broken = [x for x in executions if not x["good"]]
    problems += [f"{x['name']}: {x['outcome'] if x['outcome'] != 'ok' else 'wrong output'}" for x in broken]
    failed = sum(1 for x in executions if x["outcome"] not in ("ok", "rejected") or not x["good"])
    correct = not problems

    first = "".join(r if r is not None else "failed\n" for r in records[0])
    meta = metadata(args.seed, hashlib.sha256(first.encode()).hexdigest()[:16])
    if args.trace:
        metrics, shown = per_layer(passes[0], passes[1]), {}
    else:
        metrics, shown = end_to_end(passes, probes), unscaled(passes, probes)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} passes of {n_items} items, trace {args.trace}")
    print("  " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:44} {value:14.6g} {unit}")
    print(f"  {'error_rate':44} {failed / len(executions):14.6g} ratio ({failed} failed of {len(executions)})")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
