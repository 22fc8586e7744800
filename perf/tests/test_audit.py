"""The audit must actually bite: a tampered answer and a row outside the
viewport are both counted as failures."""

import json

import numpy as np
import pytest

from perf import inputs
from perf.audit import Oracle, heatmap_loss, inside, mean_loss
from perf.workloads import Options, Result, run_readers

SPEC = inputs.CUBE_M
TABLE = inputs.make_table(inputs.SMOKE_ROWS)
TABULA = inputs.make_tabula(TABLE, SPEC)
TABULA.initialize()
CELLS = inputs.lattice_cells(TABLE, SPEC.attrs)


def _answer(query, guarantee="CERTIFIED"):
    sample = TABULA.query(query.where).sample
    return {"cell": list(query.cell), "guarantee": guarantee,
            "num_rows": sample.num_rows, "rows": sample.to_pydict()}


def test_every_certified_answer_of_a_fresh_cube_passes():
    oracle = Oracle(TABLE, SPEC)
    for cell in CELLS:
        query = inputs.make_query(SPEC.attrs, cell, None)
        assert oracle.check_http(query, json.dumps(_answer(query)).encode()) is None
    assert 0 < oracle.max_certified_loss <= SPEC.theta


def test_tampered_answer_is_caught():
    oracle = Oracle(TABLE, SPEC)
    query = inputs.make_query(SPEC.attrs, CELLS[0], None)
    answer = _answer(query)
    answer["rows"]["fare_amount"] = [v * 3 for v in answer["rows"]["fare_amount"]]
    assert "loss" in oracle.check_http(query, json.dumps(answer).encode())
    # The same rows served honestly as DOWNGRADED carry no claim to break.
    answer["guarantee"] = "DOWNGRADED"
    assert oracle.check_http(query, json.dumps(answer).encode()) is None


def test_row_outside_the_viewport_is_caught():
    oracle = Oracle(TABLE, SPEC)
    box = {"type": "bbox", "xmin": 0.4, "ymin": 0.4, "xmax": 0.6, "ymax": 0.6}
    query = inputs.make_query(SPEC.attrs, CELLS[0], box)
    answer = _answer(query, guarantee="DOWNGRADED")
    keep = inside(box, np.asarray(answer["rows"]["pickup_x"]), np.asarray(answer["rows"]["pickup_y"]))
    honest = {name: [v for v, k in zip(values, keep) if k] for name, values in answer["rows"].items()}
    answer.update(rows=honest, num_rows=int(keep.sum()))
    assert oracle.check_http(query, json.dumps(answer).encode()) is None
    answer["rows"]["pickup_x"][0] = 0.9
    assert "outside the viewport" in oracle.check_http(query, json.dumps(answer).encode())


def test_wrong_cell_truncation_and_garbage_are_caught():
    oracle = Oracle(TABLE, SPEC)
    query = inputs.make_query(SPEC.attrs, CELLS[1], None)
    other = _answer(inputs.make_query(SPEC.attrs, CELLS[2], None))
    assert "asked" in oracle.check_http(query, json.dumps(other).encode())
    short = _answer(query)
    short["num_rows"] += 1
    assert "truncated" in oracle.check_http(query, json.dumps(short).encode())
    assert "malformed" in oracle.check_http(query, b"{not json")


def test_losses_match_their_definitions():
    assert mean_loss(np.array([1.0, 3.0]), np.array([2.2])) == pytest.approx(0.1)
    raw = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    assert heatmap_loss(raw, np.array([[0.0, 0.0]])) == pytest.approx(1.0)
    assert heatmap_loss(raw, raw) == 0.0


def test_polygon_and_radius_membership():
    hexagon = inputs._viewport("polygon", 0.5, 0.5, 0.2)
    xs, ys = np.array([0.5, 0.5, 0.71]), np.array([0.5, 0.69, 0.5])
    assert inside(hexagon, xs, ys).tolist() == [True, False, False]
    disk = inputs._viewport("radius", 0.5, 0.5, 0.2)
    assert inside(disk, xs, ys).tolist() == [True, True, False]


class _DeadServer:
    alive = False

    def __init__(self):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]


def test_dead_server_fails_every_operation_instead_of_raising():
    queries = inputs.cell_stream(SPEC.attrs, CELLS, 0, 20)
    result = Result()
    options = Options(seed=0, seconds=0.3, warmup_seconds=0.0)
    run_readers(result, _DeadServer(), [queries], options, Oracle(TABLE, SPEC))
    assert result.attempted >= 2
    assert result.failed == result.attempted + 1  # + "no request was answered"
