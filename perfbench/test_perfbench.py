"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import pickle
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cli_cases  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = range(6)
# Classes whose right answer does not depend on the drawn coefficients: a
# verdict code, or an algebra with no coefficients to draw.
SAME_ANSWER_FOR_EVERY_SEED = ("nilpotent_frames", "check.sheared", "check.chain",
                              "check.negatives")


def _schedule(workload, seed, cycles=2):
    classes = wl.IN_PROCESS[workload]()
    shared = wl.shared_inputs(workload, seed)
    warm = wl.schedule_inputs(classes, seed, 1, shared, warmup=True)
    ops = wl.schedule_inputs(classes, seed, cycles, shared)
    return warm, ops


def _bytes(ops) -> bytes:
    return pickle.dumps([(cls.name, inp) for cls, inp in ops], protocol=4)


def test_same_seed_gives_the_same_inputs_byte_for_byte():
    for workload in wl.IN_PROCESS:
        warm_a, ops_a = _schedule(workload, 7)
        warm_b, ops_b = _schedule(workload, 7)
        assert _bytes(warm_a) == _bytes(warm_b)
        assert _bytes(ops_a) == _bytes(ops_b)
        assert _bytes(ops_a) != _bytes(_schedule(workload, 8)[1])
    assert pickle.dumps(cli_cases.shared_inputs(7)) == pickle.dumps(cli_cases.shared_inputs(7))
    assert cli_cases.seeded_files(7) != cli_cases.seeded_files(8)


def test_seeds_change_coefficients_but_not_shapes():
    for workload in wl.IN_PROCESS:
        signatures = {}
        for seed in SEEDS:
            for cls, inp in _schedule(workload, seed, cycles=1)[1]:
                signatures.setdefault(cls.name, set()).add(wl.shape_signature(inp))
        assert all(len(s) == 1 for s in signatures.values()), signatures


def _token_shape(text: str) -> list[str]:
    """Sorted tokens, every rational number written as '#'."""
    tokens = re.findall(r"\d+(?:/\d+)?|[A-Za-z_.]+|\S", text)
    return sorted("#" if t[0].isdigit() else t for t in tokens)


def test_cli_seeds_change_coefficients_but_not_shapes():
    shapes = set()
    for seed in SEEDS:
        shared = cli_cases.shared_inputs(seed)
        files = tuple((path, tuple(_token_shape(text))) for path, text in
                      sorted(shared["files"].items()))
        cases = tuple((inv.argv[0] if inv.argv else "", inv.code,
                       tuple(_token_shape(" ".join(inv.argv))))
                      for key in ("seeded", "error") for inv in shared[key])
        shapes.add((files, cases))
    assert len(shapes) == 1


def test_every_oracle_accepts_its_answer_and_rejects_another():
    for workload in wl.IN_PROCESS:
        _warm, ops_a = _schedule(workload, 1, cycles=1)
        _warm, ops_b = _schedule(workload, 2, cycles=1)
        for (cls, a), (_, b) in zip(ops_a, ops_b):
            out_a = cls.run(a)
            passed, defect = run.judge(cls, a, out_a)
            assert passed or defect, cls.name
            assert defect == (cls.name == "check.chain"), cls.name
            if cls.name not in SAME_ANSWER_FOR_EVERY_SEED:
                assert not cls.check(a, cls.run(b)), cls.name


def _fake_probe():
    return probe.Probe("fixed", lambda: 0.001, 1.0)


def test_an_op_that_raises_is_a_failed_op_not_a_crash():
    def explode(inp):
        raise ZeroDivisionError("boom")

    ok = wl.OpClass("ok", lambda rng, shared: 1, lambda inp: inp + 1,
                    lambda inp, out: out == inp + 1)
    bad = wl.OpClass("bad", lambda rng, shared: 1, explode, lambda inp, out: True)
    ops = wl.schedule_inputs([ok, bad], 0, 12, {})
    result = run.run_pass(ops, [], _fake_probe())
    assert len(result.records) == 24
    assert [r.raised for r in result.records if r.cls == "bad"] == \
        ["ZeroDivisionError: boom"] * 12
    out = run.report({"pass_rate": 0.5}, {"pass_rate": "ratio"}, [result])
    assert out["attempted"] == 24 and out["failed"] == 12 and out["correct"] is False
    assert set(run.class_times(result)) == {"ok"}


def _library_functions():
    return {(m.__name__, name): value for m in tracer._library_modules()
            for name, value in vars(m).items() if callable(value)}


def test_tracer_restores_every_patched_function_and_fraction_new():
    before = _library_functions()
    new_before = Fraction.__dict__["__new__"]
    t = tracer.Tracer()
    t.install()
    try:
        from weightings import jets
        assert jets.jet_lift is not before[("weightings.jets", "jet_lift")]
        t.start_op()
        lifted = jets.jet_lift(wl.ex.parse_expr("x1*x2 + x3^2"), 2, 2, wl.CHART)
        totals = t.end_op()
    finally:
        t.uninstall()
    assert not lifted.is_zero
    assert totals["calls"]["jets"] == 1 and totals["fraction_new"] > 0
    root = next(s for s in totals["spans"] if s[0] == 0)
    assert abs(sum(totals["self_s"].values()) - (root[4] - root[3])) < 1e-9
    assert all(start <= stop for _, _, _, start, stop in totals["spans"])
    after = _library_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert Fraction.__dict__["__new__"] is new_before
    count = t.fraction_new
    Fraction(1, 3)
    assert t.fraction_new == count


def test_tail_percentile_has_ten_ops_beyond_it():
    assert run.tail_index(21) == 10
    assert run.tail_index(30) == 19
    assert run.tail_index(100) == 89
    assert run.tail_index(200) == 179
    assert probe.corrections([0.002] * 5, 4, 1.0) == [0.5] * 4


def _last_json_line(argv, cwd):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + argv, cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_last_output_line_is_the_result_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines = _last_json_line(["--workload", "symbolic", "--seed", "3",
                                       "--seconds", "1", "--trace", str(trace)], ROOT)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(lines[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0
        assert isinstance(out["attempted"], int) and out["attempted"] >= 1
        assert {name: m["unit"] for name, m in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _last_json_line(["--workload", "prolong", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
