"""The repository benchmark: one command per workload, all metrics printed.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_fused --seed 42 --seconds 36 --trace 0

Each run simulates one scenario through
``repro.experiments.runner.run_cluster`` in a fresh single-threaded
process (``perfbench/one_run.py``).  A *round* runs every scenario of
the workload once; rounds repeat until ``--seconds`` is spent (at least
two, so the determinism checks have something to compare).

``--trace 0`` reports the end-to-end metrics, medians over the rounds,
with host timings scaled to a reference CPU speed (``REFERENCE_CALIB_S``).
``--trace 1`` alternates an untraced and an outside-in traced run of the
workload's first scenario and reports the per-layer table (see
``perfbench/tracer.py``) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (jobs submitted), ``failed`` (jobs failed)
and ``metrics``.  The lines before it are for people: host metadata,
per-scenario digests and event counts, and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: Every child is single-threaded: numeric libraries get one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Host seconds one child run may take before it counts as hung.
CHILD_TIMEOUT_S = 120

#: ``calib_s`` of a child (``one_run.calibrate``, the mean of a fixed
#: loop timed just before and just after its run) at the reference CPU
#: speed.  The host's CPU speed drifts by up to ~1.8x over minutes; each
#: run's timings are scaled by ``REFERENCE_CALIB_S / calib_s`` so they
#: read as seconds at that speed.  The constant is a typical value on
#: the 2-core host the benchmark was built on (0.06-0.10 s as it drifts).
REFERENCE_CALIB_S = 0.07

#: Rounds always run, whatever ``--seconds`` says.
MIN_ROUNDS = {0: 2, 1: 1}

END_TO_END = {
    "run_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_makespan_s": "sim_s",
    "sim_mean_jct_s": "sim_s",
}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "fleet.rows_per_batch":
        return "rows"
    if name == "admission.p95_queue_delay_s":
        return "sim_s"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("share.", "trace.overhead")) or name.endswith(
        ("_ratio", "_per_placement")
    ):
        return "ratio"
    return "count"


class RunFailed(RuntimeError):
    """A child run exited badly or printed no result."""


def src_dir() -> str:
    """The ``src`` directory of the checkout the benchmark runs from."""
    return os.path.join(os.getcwd(), "src")


def child_cmd(workload: str, seed: int, *, traced: bool = False,
              spans_out: str | None = None) -> list[str]:
    """The command line of one child run."""
    cmd = [sys.executable, os.path.join(HERE, "one_run.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    return cmd


def child(workload: str, seed: int, **kwargs) -> dict:
    """Run one scenario in a fresh process and return its record."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir(), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        child_cmd(workload, seed, **kwargs), env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_meta(workload: str, seed: int) -> dict:
    """What the numbers were measured on."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.getcwd(),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def rounds_for(seconds: float, min_rounds: int, one_round) -> list:
    """Repeat ``one_round()`` until the next round would overrun."""
    rounds, t0 = [], perf_counter()
    while True:
        r0 = perf_counter()
        rounds.append(one_round())
        last = perf_counter() - r0
        if len(rounds) >= min_rounds and perf_counter() - t0 + last > seconds:
            return rounds


def consistency_errors(records: list[dict], what: str) -> list[str]:
    """Runs of one scenario must agree on digest and event count."""
    first = records[0]
    errors = [
        f"{what}: {first['workload']} seed {first['seed']} run {i} "
        + ", ".join(
            f"{k} {r[k]!r} != {first[k]!r}"
            for k in ("digest", "events") if r[k] != first[k]
        )
        for i, r in enumerate(records)
        if r["digest"] != first["digest"] or r["events"] != first["events"]
    ]
    for r in records:
        errors += [f"seed {r['seed']}: {e}" for e in r["errors"]]
    return errors


def end_to_end(workload: str, seed: int, seconds: float):
    """Median end-to-end metrics over rounds of every scenario."""
    from workloads import scenario_seeds

    seeds = scenario_seeds(workload, seed)
    rounds = rounds_for(
        seconds, MIN_ROUNDS[0], lambda: [child(workload, s) for s in seeds]
    )
    per_seed = [[rnd[i] for rnd in rounds] for i in range(len(seeds))]
    errors = []
    for records in per_seed:
        errors += consistency_errors(records, "repeat")

    def med(records, key):
        return statistics.median(r[key] for r in records)

    def scaled(records, key):
        return statistics.median(
            r[key] * REFERENCE_CALIB_S / r["calib_s"] for r in records
        )

    run_s = sum(scaled(rs, "run_s") for rs in per_seed)
    events = sum(rs[0]["events"] for rs in per_seed)
    metrics = {
        "run_s": run_s,
        "events_per_s": events / run_s,
        "setup_s": sum(scaled(rs, "setup_s") for rs in per_seed),
        "peak_rss_mib": max(med(rs, "peak_rss_mib") for rs in per_seed),
        "sim_makespan_s": statistics.fmean(
            rs[0]["sim_makespan_s"] for rs in per_seed
        ),
        "sim_mean_jct_s": statistics.fmean(
            rs[0]["sim_mean_jct_s"] for rs in per_seed
        ),
    }
    all_runs = [r for rnd in rounds for r in rnd]
    attempted = sum(r["submitted"] for r in all_runs)
    failed = sum(r["failed"] for r in all_runs)
    extra = {
        "sim_p95_queue_delay_s": statistics.fmean(
            rs[0]["sim_p95_queue_delay_s"] for rs in per_seed
        ),
        "failed_frac": failed / attempted,
        "wall_run_s": sum(med(rs, "run_s") for rs in per_seed),
        "calib_s": statistics.median(r["calib_s"] for r in all_runs),
    }
    scenarios = [
        {"seed": rs[0]["seed"], "digest": rs[0]["digest"],
         "events": rs[0]["events"],
         "run_s": [r["run_s"] for r in rs],
         "setup_s": [r["setup_s"] for r in rs],
         "calib_s": [r["calib_s"] for r in rs]}
        for rs in per_seed
    ]
    return {"metrics": metrics, "side": extra, "scenarios": scenarios,
            "attempted": attempted, "failed": failed, "errors": errors,
            "rounds": len(rounds)}


def traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from traced runs of the first scenario."""
    from workloads import scenario_seeds

    s = scenario_seeds(workload, seed)[0]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{workload}-{s}.spans.npz")
    rounds = rounds_for(
        seconds, MIN_ROUNDS[1],
        lambda: (child(workload, s),
                 child(workload, s, traced=True, spans_out=spans)),
    )
    plain = [u for u, _ in rounds]
    tr = [t for _, t in rounds]
    errors = consistency_errors(plain + tr, "traced vs untraced")
    counts = [k for k in tr[0]["layers"] if unit_of(k) == "count"]
    for t in tr[1:]:
        errors += [
            f"traced count {k} {t['layers'][k]!r} != {tr[0]['layers'][k]!r}"
            for k in counts if t["layers"][k] != tr[0]["layers"][k]
        ]
    # Counts repeat exactly (checked above); timings are medians.
    metrics = {
        k: tr[0]["layers"][k] if k in counts
        else statistics.median(t["layers"][k] for t in tr)
        for k in tr[0]["layers"]
    }
    metrics["admission.p95_queue_delay_s"] = tr[0]["sim_p95_queue_delay_s"]
    metrics["trace.overhead"] = statistics.median(
        t["run_s"] for t in tr
    ) / statistics.median(u["run_s"] for u in plain)
    layer_self = {
        k: statistics.median(t["layer_self_s"][k] for t in tr)
        for k in tr[0]["layer_self_s"]
    }
    runs = plain + tr
    attempted = sum(r["submitted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    scenario = {"seed": s, "digest": tr[0]["digest"],
                "events": tr[0]["events"], "spans": os.path.relpath(spans)}
    return {"metrics": metrics, "side": layer_self, "scenarios": [scenario],
            "attempted": attempted, "failed": failed, "errors": errors,
            "rounds": len(rounds)}


def fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def record(path: str, workload: str, mode: str, entry: dict) -> None:
    """Merge one result into the JSON file at *path*."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data.setdefault(workload, {})[mode] = entry
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(src_dir(), "repro")):
        print(f"perfbench: no repro package under {src_dir()}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src_dir()]
    from workloads import DEFAULT_SEEDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="scenario seed (default: the scenario's own)")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="host seconds to spend measuring")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, metavar="JSON",
                    help="also merge the result into this JSON file")
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    meta = host_meta(args.workload, seed)
    print("host " + " ".join(f"{k}={v}" for k, v in meta.items()))
    try:
        measure = traced if args.trace else end_to_end
        out = measure(args.workload, seed, args.seconds)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, side = out["metrics"], out["side"]
    for sc in out["scenarios"]:
        print(f"scenario {args.workload} seed={sc['seed']} "
              f"events={sc['events']} digest={sc['digest']}")
    print(f"rounds={out['rounds']} attempted={out['attempted']} "
          f"failed={out['failed']}")
    if args.trace:
        wall = metrics["trace.run_cluster_s"]
        print(f"{'layer':<22} {'self_s':>10} {'share':>7}")
        for layer, sec in sorted(side.items(), key=lambda kv: -kv[1]):
            print(f"{layer:<22} {sec:>10.4f} {sec / wall:>7.1%}")
        shown = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        shown = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        shown["sim_p95_queue_delay_s"] = (side["sim_p95_queue_delay_s"],
                                          "sim_s")
        shown["failed_frac"] = (side["failed_frac"], "ratio")
        shown["wall_run_s"] = (side["wall_run_s"], "s")
        shown["calib_s"] = (side["calib_s"], "s")
    for k, (v, unit) in shown.items():
        print(f"{k:<40} {fmt(v):>16} {unit}")
    for e in out["errors"]:
        print(f"CHECK FAILED: {e}")

    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            k: {"value": v,
                "unit": unit_of(k) if args.trace else END_TO_END[k]}
            for k, v in metrics.items()
        },
    }
    if args.record:
        record(args.record, args.workload, "trace" if args.trace else "e2e",
               {"host": meta, "rounds": out["rounds"],
                "scenarios": out["scenarios"], "side": side, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
