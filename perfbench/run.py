"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-fp --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each pass of a workload runs in a fresh
single-threaded worker process (perfbench/worker.py), one at a time, against
the package in ``src/``: a closed loop with one client.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of an
untraced run plus one traced pass.  Times are in reference seconds: wall
time corrected for the host's speed, measured by calibrate.py beside every
stage.  Metric names and units come from BENCHMARK.json.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
host and interpreter details, is also written to perfbench/out/.  The exit
code is 0 when every output passed its check, 1 when one failed or a worker
died, and 2 when the package or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep-fp", "sample-q", "batch-eval", "spreadpoly-factor")
INTERP_PROBES = 5
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    """A worker died, timed out or printed no result."""


def spawn(cmd: list, deadline: float) -> dict:
    """Run one worker; return its set-up time, result, peak RSS and exit code.

    Set-up time runs from the spawn to the worker's ``ready`` line.  The
    worker is killed when the deadline passes.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    timer = threading.Timer(max(deadline - started, 0.1), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    out = {"wall_s": time.perf_counter() - started, "code": proc.returncode,
           "maxrss_mb": usage.ru_maxrss / 1024}
    if first.startswith("ready "):
        out["ready_s"], out["import_s"] = ready_s, float(first.split()[1])
    lines = rest.strip().splitlines()
    if lines:
        try:
            out["result"] = json.loads(lines[-1])
        except ValueError:
            pass
    return out


def worker(workload: str, mode: str, seed: int, index: int, deadline: float) -> dict:
    out = spawn([sys.executable, WORKER, workload, mode, str(seed), str(index)], deadline)
    if "ready_s" not in out or "result" not in out:
        raise WorkerFailed(f"{mode} worker for {workload} exited with code {out['code']} "
                           "before reporting")
    return out


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> list:
    """The workers of one run: one per pass, until ``seconds`` have gone."""
    runs, begun = [], time.perf_counter()
    while True:
        runs.append(worker(workload, "run", seed, len(runs), deadline))
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - begun + typical > seconds:
            return runs


def reference_stages(p: dict) -> dict:
    """A pass's stage times in reference seconds.

    Each stage's wall time is divided by the mean of the calibrations run
    just before and just after it, and multiplied by REFERENCE_S: the time
    the stage would take on the host in a quiet spell.  Other tenants slow
    the host by up to 2x for seconds to minutes at a time; the calibration
    beside each stage slows with it, so the quotient moves far less.
    """
    cal = p["calib"]
    return {key: spent * REFERENCE_S * 2 / (cal[i] + cal[i + 1])
            for i, (key, spent) in enumerate(p["stages"].items())}


def slowdown(p: dict) -> float:
    """How much slower than the reference the host ran during a pass."""
    return statistics.median(p["calib"]) / REFERENCE_S


def end_to_end(runs: list) -> dict:
    passes = [r["result"]["pass"] for r in runs]
    pass_s = [sum(reference_stages(p).values()) for p in passes]
    return {
        "setup_s": statistics.median(r["ready_s"] / slowdown(p) for r, p in zip(runs, passes)),
        "cases_per_s": statistics.median(p["items"] / t for p, t in zip(passes, pass_s)),
        "pass_s": statistics.median(pass_s),
        "peak_rss_mb": max(r["maxrss_mb"] for r in runs),
    }


def wall(runs: list) -> dict:
    """The same times as end_to_end, in wall seconds, with the host's slowdown."""
    passes = [r["result"]["pass"] for r in runs]
    return {
        "setup_s": statistics.median(r["ready_s"] for r in runs),
        "pass_s": statistics.median(sum(p["stages"].values()) for p in passes),
        "host_slowdown": statistics.median(slowdown(p) for p in passes),
    }


def per_layer(runs: list, traced: dict, interp: list) -> dict:
    """Layer metrics: the traced pass's spans, probes and per-pass medians."""
    passes = [r["result"]["pass"] for r in runs]
    res = traced["result"]
    values = dict(res["layer"])
    for key in runs[0]["result"]["layer"]:
        values[key] = statistics.median(r["result"]["layer"][key] for r in runs)
    for name, (calls, self_s) in list(res["layers"].items()) + list(res["names"].items()):
        values[f"{name}.calls"], values[f"{name}.self_s"] = calls, self_s
    stages = [reference_stages(p) for p in passes]
    for key in passes[0]["cases"]:
        values[f"{key}.cases_per_s"] = statistics.median(
            p["cases"][key] / st[key] for p, st in zip(passes, stages))
    # Stage groups, named by the first two parts of a stage key: for example
    # spreadpoly.factor_s sums the spreadpoly.factor.<d> stages of a pass.
    groups: dict = {}
    for st in stages:
        sums: dict = {}
        for key, spent in st.items():
            group = ".".join(key.split(".")[:2]) + "_s"
            sums[group] = sums.get(group, 0.0) + spent
        for group, spent in sums.items():
            groups.setdefault(group, []).append(spent)
    for group, spent in groups.items():
        values[group] = statistics.median(spent)
    untraced_s = statistics.median(sum(st.values()) for st in stages)
    values["field.fp_new"] = res["fp_new"]
    values["trace.spans"] = res["spans"]
    values["trace.overhead"] = sum(reference_stages(res["pass"]).values()) / untraced_s
    values["cli.interp_s"] = statistics.median(interp)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in runs)
    return values


def interp_probe(deadline: float) -> float:
    """Wall time of ``python -c pass``: interpreter start and site, nothing else."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   timeout=max(deadline - started, 0.1))
    return time.perf_counter() - started


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((ln.split(":", 1)[1].strip() for ln in info
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg_start": os.getloadavg(),
            "executable": sys.executable}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    machine = host()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadrance", "__init__.py")):
        print("error: src/quadrance not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        interp = [interp_probe(deadline) for _ in range(INTERP_PROBES)] if args.trace else []
        runs = untraced(args.workload, args.seed, args.seconds, deadline)
        traced = worker(args.workload, "traced", args.seed, 0, deadline) if args.trace else None
    except (WorkerFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(runs, traced, interp)
    else:
        values = end_to_end(runs)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    passes = [r["result"]["pass"] for r in runs + ([traced] if traced else [])]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": machine, "wall": wall(runs),
        "interpreter": runs[0]["result"]["interpreter"],
        "mix": runs[0]["result"].get("mix"), "passes": len(passes),
        "failed_frac": failed / attempted, "problems": problems[:20],
        "elapsed_s": time.perf_counter() - started, "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  failed_frac {failed / attempted:.6g}")
    for key in ("host", "wall", "interpreter", "mix"):
        if record[key]:
            print(f"{key} {json.dumps(record[key])}")
    for msg in problems[:20]:
        print(f"problem {msg}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
