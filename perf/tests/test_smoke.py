"""``--smoke`` drives every workload end to end, untraced and traced, in under 30 s."""

import json
import time

from perf import run

DEFINITION = run.DEFINITION
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_runs_all_workloads_and_the_traced_run(capsys, tmp_path):
    started = time.perf_counter()
    out = tmp_path / "runs.jsonl"
    assert run.main(["--workload", "all", "--smoke", "--out", str(out)]) == 0
    untraced = _last_line(capsys)["workloads"]
    assert run.main(["--workload", "all", "--smoke", "--trace"]) == 0
    traced = _last_line(capsys)["workloads"]
    elapsed = time.perf_counter() - started

    end_to_end = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}
    for name in WORKLOADS:
        for outcome, declared in ((untraced[name], end_to_end), (traced[name], per_layer)):
            assert outcome["correct"] and outcome["failed"] == 0, (name, outcome)
            assert outcome["attempted"] >= 1
            assert {k: v["unit"] for k, v in outcome["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in untraced[name]["metrics"].values()), name
    # Each layer's own workload exercises it; the bypassing workload leaves it idle.
    assert traced["http_viewport"]["metrics"]["core.spatial.filter_us"]["value"] > 0
    assert traced["http_cell"]["metrics"]["core.spatial.filter_us"]["value"] == 0
    assert traced["build_parallel"]["metrics"]["core.parallel.pool_seconds"]["value"] > 0
    assert traced["build"]["metrics"]["core.parallel.pool_seconds"]["value"] == 0
    assert traced["ingest_mixed"]["metrics"]["core.maintenance.plan_ms"]["value"] > 0
    assert traced["http_viewport"]["metrics"]["serving.wire.frame_bytes"]["value"] > 0

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == WORKLOADS
    assert all(r["notes"]["inputs_digest"] and r["environment"]["nproc"] for r in records)
    assert elapsed < 30.0, f"smoke took {elapsed:.1f}s"
