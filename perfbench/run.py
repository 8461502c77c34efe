"""Benchmark of the weightings library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload prolong --seed 1 --seconds 15 --trace 0

Workloads: prolong, symbolic (in-process, one client, no threads) and cli
(one `python -m weightings.cli` child per op, one at a time).  Each is a
closed loop over a fixed round-robin schedule of op classes.  A run is a
fixed number of schedule cycles, set by --seconds, after one untimed
warm-up cycle.  A machine-speed probe runs between ops, and every time is
reported at the probe's reference speed (see probe.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
traced pass and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("prolong", "symbolic", "cli")
# A run is round(seconds * rate) schedule cycles, so that its timed ops take
# about --seconds at the reference probe speed; the op count depends on
# --seconds only, never on how fast the machine is.
CYCLES_PER_SECOND = {"prolong": 4.4, "symbolic": 16.0, "cli": 2.2}
# At least 21 ops per class, so the tail percentile has ten ops beyond it
# and ten below it.
MIN_CYCLES = 21
SETUP_REPEATS = 21
INTERP_REPEATS = 7
OP_TIMEOUT_S = 60.0
TRACE_SEED_SALT = "traced"

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "pass_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
TIMED_LAYERS = ("jets", "subbundle", "expr", "wpoly", "fields", "spaces", "weights", "cli")
PER_LAYER = {"jets.self_ms": "ms", "jets.calls": "count", "fraction.new": "count",
             "subbundle.self_ms": "ms", "subbundle.calls": "count",
             "expr.self_ms": "ms", "expr.calls": "count",
             "wpoly.self_ms": "ms", "fields.self_ms": "ms", "spaces.self_ms": "ms",
             "weights.self_ms": "ms", "cli.self_ms": "ms", "cli.import_ms": "ms",
             "cli.interp_ms": "ms", "env.probe_ms": "ms", "env.raw_ops_per_s": "1/s",
             "trace.overhead": "ratio"}


class Timeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise Timeout in this process if the block runs longer than seconds."""
    def expire(signum, frame):
        raise Timeout(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # bytecode is compiled once, untimed, so children read it from the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    trace: dict | None = None


def run_child(argv: list[str], env: dict, timeout: float = OP_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; its output goes through files under OUT_DIR."""
    out_path, err_path = OUT_DIR / "child.out", OUT_DIR / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        status = usage = None
        try:
            with deadline(timeout):
                _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           usage.ru_maxrss)


def cli_spawner(traced: bool):
    env = child_env()
    trace_path = OUT_DIR / "child-trace.json"
    if traced:
        env["PERFBENCH_CHILD_TRACE"] = str(trace_path)
        prefix = [sys.executable, str(HERE / "child.py"), "cli"]
    else:
        prefix = [sys.executable, "-m", "weightings.cli"]

    def spawn(argv) -> ChildResult:
        result = run_child(prefix + list(argv), env)
        if traced:
            result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        return result

    return spawn


# ---------------------------------------------------------------------------
# one pass over a schedule

@dataclass
class OpRecord:
    cls: str
    seconds: float
    raised: str | None
    passed: bool
    defect: bool
    layers: dict | None = None


@dataclass
class PassResult:
    records: list[OpRecord]
    probes: list[float]
    factors: list[float]
    peak_rss_kb: int
    span_samples: dict = field(default_factory=dict)

    def completed(self, corrected=True):
        """(record, correction factor) of every op that returned."""
        return [(r, f if corrected else 1.0)
                for r, f in zip(self.records, self.factors) if r.raised is None]


def judge(cls, inp, out) -> tuple[bool, bool]:
    """(oracle accepts, result is the class's recorded known defect)."""
    try:
        passed = bool(cls.check(inp, out))
        defect = (not passed and cls.known_defect is not None
                  and bool(cls.known_defect(inp, out)))
    except Exception:  # an oracle that cannot judge the result rejects it
        return False, False
    return passed, defect


def run_pass(ops, warmup, prober: probe.Probe, tracer=None) -> PassResult:
    for cls, inp in warmup:
        try:
            with deadline(OP_TIMEOUT_S):
                cls.run(inp)
        except Exception:  # the timed ops record the failure
            pass
    if tracer is not None:
        tracer.install()
    records, probe_times, child_rss, span_samples = [], [], 0, {}
    gc.collect()
    try:
        for cls, inp in ops:
            probe_times.append(prober.run())
            if tracer is not None:
                tracer.start_op()
            raised = out = None
            with deadline(OP_TIMEOUT_S):
                start = time.perf_counter()
                try:
                    out = cls.run(inp)
                except Exception as err:  # a failed op, not a crash of the run
                    raised = f"{type(err).__name__}: {err}"
                end = time.perf_counter()
            layers = tracer.end_op() if tracer is not None else getattr(out, "trace", None)
            if layers and "spans" in layers:
                # keep the spans of each class's first op for the trace file
                spans = layers.pop("spans")
                span_samples.setdefault(cls.name, spans)
            passed, defect = judge(cls, inp, out) if raised is None else (False, False)
            records.append(OpRecord(cls.name, end - start, raised, passed, defect, layers))
            child_rss = max(child_rss, getattr(out, "maxrss_kb", 0))
        probe_times.append(prober.run())
    finally:
        if tracer is not None:
            tracer.uninstall()
    # in-process ops: this process's peak; cli: the largest child
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return PassResult(records, probe_times, prober.corrections(probe_times, len(records)),
                      child_rss or own_rss, span_samples)


def prepare(workload: str, seed, cycles: int, shared=None, traced=False):
    """(ops, warm-up ops, shared inputs) for one pass of the workload."""
    import workloads
    if workload == "cli":
        import cli_cases
        if shared is None:
            shared = cli_cases.shared_inputs(seed)
            for path, text in shared["files"].items():
                (ROOT / path).parent.mkdir(parents=True, exist_ok=True)
                (ROOT / path).write_text(text, encoding="utf-8")
        classes = cli_cases.cli_classes(cli_spawner(traced))
    else:
        if shared is None:
            shared = workloads.shared_inputs(workload, seed)
        classes = workloads.IN_PROCESS[workload]()
    warmup = workloads.schedule_inputs(classes, seed, 1, shared, warmup=True)
    ops = workloads.schedule_inputs(classes, seed, cycles, shared)
    return ops, warmup, shared


# ---------------------------------------------------------------------------
# set-up time and interpreter start

def timed_children(argvs, ready_line: bool,
                   prober: probe.Probe) -> list[tuple[float, float, str]]:
    """Run children one at a time between probes.

    Returns (raw seconds, correction factor, first stdout line) per child.
    With ready_line the time runs until the child prints its first line,
    otherwise until it exits.
    """
    env = child_env()
    samples, probe_times = [], []
    for argv in argvs:
        probe_times.append(prober.run())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            with deadline(OP_TIMEOUT_S):
                line = proc.stdout.readline().decode() if ready_line else ""
                stamp = time.perf_counter()
                rest = proc.stdout.read().decode()
                code = proc.wait()
                end = time.perf_counter()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"child {argv[1:]} exited with {code}: {line}{rest}")
        samples.append(((stamp if ready_line else end) - start, line))
    probe_times.append(prober.run())
    factors = prober.corrections(probe_times, len(samples))
    return [(s, f, line) for (s, line), f in zip(samples, factors)]


def setup_times(workload: str, seed: int, repeats: int):
    """(set-up seconds, import seconds, raw set-up seconds) per fresh child.

    The first two are corrected to the reference probe speed.
    """
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    setups, imports, raw = [], [], []
    for seconds, factor, line in timed_children([argv] * repeats, True, probe.START):
        word, value = line.split()
        if word != "ready":
            raise RuntimeError(f"set-up child printed {line!r}")
        setups.append(seconds * factor)
        imports.append(float(value) * factor)
        raw.append(seconds)
    return setups, imports, raw


def interpreter_times(repeats: int) -> list[float]:
    """Corrected wall time of a bare interpreter start and exit."""
    # corrected by the CPU probe: by the start probe it would be constant
    out = timed_children([[sys.executable, "-c", "pass"]] * repeats, False, probe.CPU)
    return [seconds * factor for seconds, factor, _ in out]


# ---------------------------------------------------------------------------
# metrics

def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_index(n: int) -> int:
    """Highest percentile with at least ten ops beyond it, at most p90."""
    return min(n - 11, math.ceil(0.9 * n) - 1)


def class_times(result: PassResult, corrected=True) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for r, f in result.completed(corrected):
        times.setdefault(r.cls, []).append(r.seconds * f)
    return {name: sorted(ts) for name, ts in times.items()}


def end_to_end(result: PassResult, setup_s: list[float], corrected=True) -> dict[str, float]:
    times = class_times(result, corrected)
    if any(len(ts) < 11 for ts in times.values()) or len(times) == 0:
        raise RuntimeError("too few completed ops per class for a tail percentile")
    done = result.completed(corrected)
    passed = sum(r.passed for r in result.records)
    return {
        "ops_per_s": len(done) / sum(r.seconds * f for r, f in done),
        "op_p50_ms": 1e3 * geomean(statistics.median(ts) for ts in times.values()),
        "op_tail_ms": 1e3 * geomean(ts[tail_index(len(ts))] for ts in times.values()),
        "pass_rate": passed / len(result.records),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result.peak_rss_kb / 1024,
    }


def per_layer(untraced: PassResult, traced: PassResult, imports: list[float],
              interp: list[float]) -> dict[str, float]:
    done = traced.completed()
    n = len(done)
    self_s = {layer: 0.0 for layer in TIMED_LAYERS}
    calls = {layer: 0 for layer in TIMED_LAYERS}
    fraction_new = 0
    for r, f in done:
        for layer in TIMED_LAYERS:
            self_s[layer] += r.layers["self_s"].get(layer, 0.0) * f
            calls[layer] += r.layers["calls"].get(layer, 0)
        fraction_new += r.layers["fraction_new"]
    plain = untraced.completed()
    metrics = {f"{layer}.self_ms": 1e3 * self_s[layer] / n for layer in TIMED_LAYERS}
    metrics.update({f"{layer}.calls": calls[layer] / n for layer in TIMED_LAYERS})
    metrics.update({
        "fraction.new": fraction_new / n,
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.interp_ms": 1e3 * statistics.median(interp),
        "env.probe_ms": 1e3 * statistics.median(untraced.probes),
        "env.raw_ops_per_s": len(plain) / sum(r.seconds for r, _ in plain),
        "trace.overhead": (sum(r.seconds * f for r, f in done) / n)
        / (sum(r.seconds * f for r, f in plain) / len(plain)),
    })
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point

def report(metrics: dict, units: dict, passes: list[PassResult]) -> dict:
    records = [r for p in passes for r in p.records]
    return {
        "correct": all(r.passed or r.defect for r in records),
        "attempted": len(records),
        "failed": sum(not r.passed for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def summary(result: PassResult) -> None:
    """Human-readable per-class lines, printed before the JSON line."""
    times = class_times(result)
    for name, ts in times.items():
        mine = [r for r in result.records if r.cls == name]
        print(f"# {name:22s} n={len(ts):4d}  p50 {1e3 * statistics.median(ts):9.3f} ms  "
              f"tail {1e3 * ts[tail_index(len(ts))]:9.3f} ms  "
              f"pass {sum(r.passed for r in mine)}/{len(mine)}")
    for r in result.records:
        if r.raised:
            print(f"# {r.cls} raised {r.raised}")
            break


def probe_for(workload: str):
    """Child processes are corrected by the start probe, in-process ops by CPU."""
    return probe.START if workload == "cli" else probe.CPU


def cycles_for(workload: str, seconds: int) -> int:
    return max(MIN_CYCLES, round(seconds * CYCLES_PER_SECOND[workload]))


def untraced_run(workload: str, seed: int, seconds: int) -> dict:
    setups, _imports, raw_setups = setup_times(workload, seed, SETUP_REPEATS)
    ops, warmup, _shared = prepare(workload, seed, cycles_for(workload, seconds))
    result = run_pass(ops, warmup, probe_for(workload))
    summary(result)
    print("# raw " + json.dumps(end_to_end(result, raw_setups, corrected=False)))
    metrics = end_to_end(result, setups)
    return report(metrics, END_TO_END, [result])


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    from tracer import Tracer
    _setups, imports, _raw = setup_times(workload, seed, SETUP_REPEATS)
    interp = interpreter_times(INTERP_REPEATS)
    cycles = max(MIN_CYCLES, cycles_for(workload, seconds) // 2)
    ops, warmup, shared = prepare(workload, seed, cycles)
    untraced = run_pass(ops, warmup, probe_for(workload))
    # fresh inputs for the traced pass, so its frames are new to the memo
    traced_seed = f"{seed}:{TRACE_SEED_SALT}"
    ops, warmup, _ = prepare(workload, traced_seed, cycles, shared, traced=True)
    traced = run_pass(ops, warmup, probe_for(workload),
                      None if workload == "cli" else Tracer())
    summary(traced)
    metrics = per_layer(untraced, traced, imports, interp)
    write_trace(workload, seed, traced)
    return report(metrics, PER_LAYER, [untraced, traced])


def write_trace(workload: str, seed: int, traced: PassResult) -> None:
    """Per-class mean self time per layer, and the first op's spans."""
    classes: dict = {}
    for r, f in traced.completed():
        entry = classes.setdefault(r.cls, {"ops": 0, "self_ms": {}, "calls": {}})
        entry["ops"] += 1
        for layer, s in r.layers["self_s"].items():
            entry["self_ms"][layer] = entry["self_ms"].get(layer, 0.0) + 1e3 * s * f
        for layer, c in r.layers["calls"].items():
            entry["calls"][layer] = entry["calls"].get(layer, 0) + c
    for entry in classes.values():
        for key in ("self_ms", "calls"):
            entry[key] = {k: v / entry["ops"] for k, v in entry[key].items()}
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"classes": classes, "first_op_spans": traced.span_samples}),
                    encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main() -> int:
    args = parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing decides set and dict order inside the library; fix
        # it so that a seed gives the same work in every run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (SRC / "weightings" / "__init__.py").is_file():
        print(f"error: no weightings package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    # compile the bytecode once, untimed, so every timed start reads it
    subprocess.run([sys.executable, "-c", "import weightings.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=OP_TIMEOUT_S)
    run = traced_run if args.trace else untraced_run
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
