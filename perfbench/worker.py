"""One benchmark worker process: set up, report ready, then run one pass.

    python3 perfbench/worker.py WORKLOAD MODE SEED INDEX

MODE is ``run`` (one untraced pass) or ``traced`` (field probes, then one
pass with the span wrappers installed).  INDEX numbers the pass within the
run.  The pass's inputs come from its own seed, SEED + INDEX * 10**6, and
the process is fresh, so nothing one pass computed or cached can speed up
the next: every pass is as cold as a CLI call.  An untraced pass runs pinned
to the INDEX-th of the CPUs the process may use, in turn: on a shared host
one CPU is often slowed by another tenant for seconds at a time, and this
keeps that from slowing every pass of a run.  The first stdout line is
``ready <import seconds>``, written as soon as ``import quadrance`` has
finished and the workload's field contexts exist; run.py times set-up to
that line.  The last stdout line is the JSON result.  The exit code is 1
when any output failed its check.

Before the ready line only ``os``, ``sys`` and ``time`` are imported, which
every interpreter start has loaded already, so set-up time is the
interpreter's start, ``import quadrance`` and the contexts.
"""

import os
import sys
import time

# Field contexts each workload needs before its first request.
SETUP_FIELDS = {
    "sweep-fp": ("fp:7",),
    "sample-q": ("rationals",),
    "batch-eval": ("rationals", "fp:13", "fp:18446744073709551557"),
    "spreadpoly-factor": (),
}
PASS_SEED_STRIDE = 1_000_000


def main(argv) -> int:
    workload, mode, seed, index = argv[0], argv[1], int(argv[2]), int(argv[3])
    startup_modules = sorted(sys.modules)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    started = time.perf_counter()
    import quadrance
    import_s = time.perf_counter() - started
    for descriptor in SETUP_FIELDS[workload]:
        quadrance.make_context(descriptor)
    sys.stdout.write(f"ready {import_s!r}\n")
    sys.stdout.flush()

    import json

    import workloads

    from calibrate import calibrate

    wl = workloads.WORKLOADS[workload]
    pass_seed = seed + index * PASS_SEED_STRIDE
    if mode == "run":
        state = wl.prepare(pass_seed)
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        calibrate()  # warm-up: the pass's calibrations all run warm
        result = {"pass": wl.run_pass(state), "layer": wl.layer(state),
                  "mix": state.get("mix")}
        if index == 0:
            result["interpreter"] = _interpreter(startup_modules, quadrance)
    else:
        from tracing import Tracer, install

        probes = workloads.field_probes(seed)
        tracer = Tracer()
        install(tracer)
        state = wl.prepare(pass_seed)
        calibrate()
        traced = wl.run_pass(state, tracer)
        out_dir = os.path.join(here, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{workload}-spans.tsv"))
        result = {"pass": traced, "layer": probes, "fp_new": tracer.fp_new,
                  "spans": len(tracer.span_start), "layers": tracer.layer_totals(),
                  "names": tracer.by_name()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["pass"]["failed"] == 0 else 1


def _interpreter(startup_modules, package) -> dict:
    """What ran before the benchmark's code, and what recompiling the package costs."""
    stdlib = getattr(sys, "stdlib_module_names", frozenset())
    package_dir = os.path.dirname(package.__file__)
    started = time.perf_counter()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as src:
                compile(src.read(), name, "exec")
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "site_ran": not sys.flags.no_site and "site" in startup_modules,
        "startup_modules": len(startup_modules),
        "startup_non_stdlib": [m for m in startup_modules
                               if m.split(".")[0] not in stdlib and not m.startswith("_")
                               and m != "__main__"],
        "package_compile_s": time.perf_counter() - started,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
