"""One pass of a workload in a fresh process; ``run.py`` starts these.

Usage: python3 perfbench/pass_runner.py WORKLOAD SEED BUDGET TRACE [SPANS_FILE]

Builds the workload's items, prints {"ready": <monotonic time>}, then runs
the items in order in a closed loop: one caller, the next item only after
the previous returned.  After each item it prints one JSON line with the
item's time, outcome and record.  Between items it times reference chunks,
about REF_SHARE of the item time and so spread evenly over the pass; a
set-up-only pass times SETUP_REF_CHUNKS of them.  Their times go into the
last line, and each item's line gives the index range of the chunks timed
right after it.  A BUDGET above 0 stops the pass after the item during which
that many seconds ran out; 0 runs the whole pass, and a negative BUDGET
stops after set-up.  With TRACE 1 the items run under
the tracer, its spans go to SPANS_FILE and its metrics, with
``workloads.uncertified_ratio`` run untraced after them, into the last line.

A fresh process per pass keeps one pass from warming anything the next
one reads: a user's ``singfib verify`` pays for its own process too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: reference chunks take this share of the time the items take, spread over the pass
REF_SHARE = 0.05
#: reference chunks run right after set-up, to scale the set-up time
SETUP_REF_CHUNKS = 40


def reference_chunk() -> dict[int, Fraction]:
    """A fixed piece of Fraction and dict arithmetic, the kind singfib's kernels do.

    It never changes with singfib, so its time measures how fast the machine
    runs such code at that moment; ``run.py`` scales every time by it.
    """
    acc: dict[int, Fraction] = {}
    for i in range(1, 100):
        key = i % 13
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1) * Fraction(key + 1, 3)
    return acc


def time_reference_chunk() -> float:
    t0 = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - t0


def import_singfib() -> None:
    """Import singfib from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import singfib
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import singfib from {src}: {exc}") from None
    if Path(singfib.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: singfib was imported from {singfib.__file__}, not from {src}")


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def main(argv: list[str]) -> int:
    workload, seed, budget, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import_singfib()
    import workloads

    items = workloads.build(workload, seed)
    emit({"ready": time.monotonic(), "items": len(items)})
    if budget < 0:
        emit({"done": True, "ref_s": [time_reference_chunk() for _ in range(SETUP_REF_CHUNKS)]})
        return 0

    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    done = []
    ref_s: list[float] = []
    owed = 0.0
    try:
        loop_start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = item.run()
                else:
                    with tracer.span(f"item:{item.name}"):
                        result = item.run()
                outcome = "ok"
            except workloads.DOMAIN_ANSWERS as exc:
                outcome, result = "rejected", f"rejected: {exc}\n"
            except Exception as exc:  # any other exception is a failed item and a broken gate
                outcome, result = f"failed:{type(exc).__name__}: {exc}", None
            dt = time.perf_counter() - t0
            first_ref = len(ref_s)
            owed += REF_SHARE * dt
            while owed > 0:
                ref_s.append(time_reference_chunk())
                owed -= ref_s[-1]
            done.append((dt, outcome, result, (first_ref, len(ref_s))))
            if budget > 0 and time.perf_counter() - loop_start >= budget:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # checks run after the loop, so they are neither timed nor traced
    for index, (dt, outcome, result, ref) in enumerate(done):
        record, good = None, not outcome.startswith("failed")
        if outcome == "rejected":
            record = result
        elif outcome == "ok":
            try:
                record, good = items[index].check(result)
            except Exception as exc:  # a check that cannot run is a broken gate
                outcome, good = f"failed:check {type(exc).__name__}: {exc}", False
        emit(
            {
                "i": index,
                "name": items[index].name,
                "dt": dt,
                "ref": ref,
                "outcome": outcome,
                "good": good,
                "record": record,
            }
        )
    summary: dict = {"done": True, "rss_kb": rss_kb, "ref_s": ref_s}
    if tracer is not None:
        tracer.write(argv[4])
        summary["trace"] = tracer.metrics()
        summary["trace"]["interval.uncertified_ratio"] = workloads.uncertified_ratio(seed)
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
