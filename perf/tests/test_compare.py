import json

from perf import compare


def _write(path, workload, metric, values, digest="d0"):
    with open(path, "w") as handle:
        for seed, value in enumerate(values):
            handle.write(json.dumps({
                "workload": workload, "seed": seed, "notes": {"inputs_digest": digest},
                "metrics": {metric: {"value": value, "unit": "ms"}},
            }) + "\n")
    return str(path)


def test_verdicts_on_synthetic_pairs():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert compare.verdict(steady, [v * 1.03 for v in steady], "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "lower", 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.1)[0] == "worse"
    noisy = [60.0, 90.0, 100.0, 110.0, 140.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"


def test_rows_and_exit_codes(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", "http_cell", "latency_p50_ms", [44.0, 44.1, 43.9])
    same = _write(tmp_path / "b.jsonl", "http_cell", "latency_p50_ms", [44.2, 44.0, 44.1])
    slow = _write(tmp_path / "c.jsonl", "http_cell", "latency_p50_ms", [64.0, 64.1, 63.9])
    assert compare.main([a, same]) == 0
    assert "same" in capsys.readouterr().out
    assert compare.main([a, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([a]) == 0
    assert "latency_p50_ms" in capsys.readouterr().out


def test_refuses_runs_with_different_inputs(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", "http_cell", "latency_p50_ms", [44.0], digest="d0")
    b = _write(tmp_path / "b.jsonl", "http_cell", "latency_p50_ms", [44.0], digest="d1")
    assert compare.main([a, b]) == 2
    assert "refusing to compare" in capsys.readouterr().out
