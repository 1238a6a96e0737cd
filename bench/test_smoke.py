"""Smoke tests for the benchmark: python -m pytest bench/test_smoke.py

The smoke mode runs the smallest item of every workload, checks included,
in a few seconds.  These tests also show that the checks reject a wrong
answer and that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import braids  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_checks_pass():
    out = last_json(run_bench("--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(SPEC["workloads"])
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            assert out["metrics"][f"{w['name']}/{m['name']}"]["value"] > 0


def test_smoke_trace_reports_every_per_layer_metric():
    out = last_json(run_bench("--smoke", "--trace", "1"))
    assert out["correct"]
    for w in SPEC["workloads"]:
        for m in SPEC["per_layer"]:
            assert out["metrics"][f"{w['name']}/{m['name']}"]["unit"] == m["unit"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "khovanov", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_reject_a_wrong_answer():
    word_item, mirror_item = workloads.khovanov_setup(1)[:2]  # T(2,3) and its mirror
    table = oracles.torus_2_khovanov(3)
    assert word_item.check(table) == []
    assert mirror_item.check(oracles.mirror_table(table)) == []
    assert mirror_item.check(table)
    wrong = dict(table)
    wrong[(3, 7)] = (0, ())  # drop the Z/2: the Euler characteristic still holds
    assert word_item.check(wrong)
    wrong[(3, 9)] = (2, ())
    assert any("Euler" in p for p in word_item.check(wrong))

    sums_item = workloads.invariant_sums_setup(1)[0]  # counting:flip on a Markov pair
    good = sums_item.compute(sums_item.build(), None)
    assert sums_item.check(good) == []
    assert sums_item.check([good[0], good[1] + 2])


def test_closure_of_trefoil_word_and_free_strand():
    trefoil = braids.closure([1, 1, 1], 2)
    assert [c["sign"] for c in trefoil["crossings"]] == [1, 1, 1]
    assert trefoil["free_circles"] == 0
    assert braids.closure([1, 1, 1], 3)["free_circles"] == 1
    assert oracles.kauffman_euler([1, 1, 1], 3) == {
        e: c for e, c in _times_q_plus_inverse(oracles.kauffman_euler([1, 1, 1], 2)).items() if c
    }


def _times_q_plus_inverse(poly):
    out = {}
    for e, c in poly.items():
        out[e + 1] = out.get(e + 1, 0) + c
        out[e - 1] = out.get(e - 1, 0) + c
    return out
