"""``Tabula.query_many`` semantics.

The batch entry point is the per-cell ladder applied item by item; its
contract is that it is observationally identical to N sequential
``query`` calls — same samples, sources, cells and
:class:`GuaranteeStatus` values, same exceptions — including while a
concurrent writer is appending rows.
"""

import threading

import pytest

from repro.core.loss import MeanLoss
from repro.core.maintenance import append_rows
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.expressions import Equals
from repro.errors import InvalidQueryError, TypeMismatchError

ATTRS = ("passenger_count", "payment_type")


def make_tabula(rows=800, seed=3, theta=0.05):
    table = generate_nyctaxi(num_rows=rows, seed=seed)
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS, threshold=theta, loss=MeanLoss("fare_amount"), seed=7
        ),
    )
    tabula.initialize()
    return tabula


def _query_of(cell):
    return {attr: value for attr, value in zip(ATTRS, cell) if value is not None}


def _mixed_workload(tabula):
    """Every source kind: local cells, rollups, the root, an unknown cell."""
    wheres = [None, {}]
    wheres += [_query_of(cell) for cell in list(tabula.store._cell_to_sample_id)]
    wheres += [{"payment_type": "cash"}, {"passenger_count": "1"}]
    wheres += [{"payment_type": "no_such_value"}]
    return wheres


def assert_equivalent(batch, sequential):
    assert len(batch) == len(sequential)
    for b, s in zip(batch, sequential):
        assert b.source == s.source
        assert b.guarantee == s.guarantee
        assert b.cell == s.cell
        assert b.sample.to_pydict() == s.sample.to_pydict()


class TestEquivalence:
    def test_batch_equals_sequential_over_every_source(self):
        tabula = make_tabula()
        wheres = _mixed_workload(tabula)
        assert_equivalent(tabula.query_many(wheres), [tabula.query(w) for w in wheres])

    def test_results_keep_input_order(self):
        tabula = make_tabula()
        cells = list(tabula.store._cell_to_sample_id)[:3]
        wheres = [{"payment_type": "no_such"}] + [_query_of(c) for c in cells] + [None]
        results = tabula.query_many(wheres)
        assert results[0].source == "empty"
        for where, result in zip(wheres, results):
            assert result.cell == tabula.query(where).cell

    def test_empty_batch(self):
        assert make_tabula(rows=300).query_many([]) == []

    def test_predicate_items_delegate_to_query(self):
        tabula = make_tabula()
        pred = Equals("payment_type", "cash")
        batch = tabula.query_many([pred, {"payment_type": "credit"}])
        assert_equivalent(batch, [tabula.query(pred), tabula.query({"payment_type": "credit"})])

    def test_invalid_attr_raises_like_query(self):
        tabula = make_tabula(rows=300)
        with pytest.raises(InvalidQueryError):
            tabula.query_many([{"not_cubed": "x"}])

    def test_type_mismatch_raises_like_query(self):
        tabula = make_tabula(rows=300)
        with pytest.raises(TypeMismatchError):
            tabula.query_many([{"passenger_count": 1}])

    def test_degraded_cell_goes_through_fallback_ladder(self):
        # The ladder may *repair* the cell (rebind to a representative),
        # so equivalence is checked across two identically-built cubes
        # rather than two passes over one self-healing store.
        one, two = make_tabula(), make_tabula()
        cell = next(iter(one.store._cell_to_sample_id))
        one.store.mark_degraded(cell, "checksum mismatch (test)")
        two.store.mark_degraded(cell, "checksum mismatch (test)")
        wheres = [_query_of(cell), {"payment_type": "cash"}]
        batch = one.query_many(wheres)
        sequential = [two.query(w) for w in wheres]
        assert batch[0].source in {"representative", "global", "raw"}
        assert_equivalent(batch, sequential)


class TestConcurrentWriter:
    def test_batches_stay_honest_under_concurrent_appends(self):
        """query_many never raises or returns VOID while append_rows
        swaps samples underneath it (the stale-pointer retry absorbs
        mid-swap reads)."""
        tabula = make_tabula()
        wheres = [_query_of(cell) for cell in list(tabula.store._cell_to_sample_id)]
        assert wheres
        stop = threading.Event()
        violations = []
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    results = tabula.query_many(wheres)
                except Exception as exc:  # noqa: BLE001 - fail the test
                    errors.append(repr(exc))
                    return
                for where, result in zip(wheres, results):
                    if result.guarantee is GuaranteeStatus.VOID:
                        violations.append((where, result.detail))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for batch in range(4):
                delta = generate_nyctaxi(num_rows=150, seed=100 + batch)
                append_rows(tabula, delta, seed=batch)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert errors == []
        assert violations == []

    def test_quiescent_equivalence_after_appends(self):
        tabula = make_tabula()
        for batch in range(2):
            append_rows(tabula, generate_nyctaxi(num_rows=150, seed=50 + batch))
        wheres = _mixed_workload(tabula)
        assert_equivalent(tabula.query_many(wheres), [tabula.query(w) for w in wheres])
