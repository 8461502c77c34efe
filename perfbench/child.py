"""Child processes of the benchmark.

    child.py setup <workload> <seed>
        Import weightings and weightings.cli, build the inputs of the
        workload's first schedule cycle, then print "ready <import seconds>".
    child.py cli <argument>...
        Run the weightings CLI like `python -m weightings.cli`, with the
        tracer installed; the per-layer totals and the import time are
        written as JSON to the file named by PERFBENCH_CHILD_TRACE.
"""

import json
import os
import sys
import time


def setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import weightings  # noqa: F401
    import weightings.cli  # noqa: F401
    imported = time.perf_counter() - start
    import workloads
    if workload == "cli":
        import cli_cases
        shared, classes = cli_cases.shared_inputs(seed), cli_cases.cli_classes(None)
    else:
        shared = workloads.shared_inputs(workload, seed)
        classes = workloads.IN_PROCESS[workload]()
    workloads.schedule_inputs(classes, seed, 1, shared)
    print(f"ready {imported!r}", flush=True)


def cli(argv: list[str]) -> int:
    start = time.perf_counter()
    import weightings.cli
    imported = time.perf_counter() - start
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.start_op()
    try:
        code = weightings.cli.main(argv)
    finally:
        totals = tracer.end_op()
        tracer.uninstall()
    sys.stdout.flush()
    del totals["spans"]
    totals["import_s"] = imported
    with open(os.environ["PERFBENCH_CHILD_TRACE"], "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
    elif mode == "cli":
        sys.exit(cli(rest))
    else:
        sys.exit(f"unknown mode {mode!r}")
