"""Tests for cube persistence (save/load round trip)."""

import json

import numpy as np
import pytest

from repro.core.global_sample import draw_global_sample
from repro.core.loss import MeanLoss
from repro.core.persistence import (
    PersistenceError,
    load_cube,
    save_cube,
    table_from_json,
    table_to_json,
)
from repro.core.tabula import Tabula, TabulaConfig
from repro.engine.cube import CubeCells
from repro.errors import TabulaError

ATTRS = ("passenger_count", "payment_type")


@pytest.fixture(scope="module")
def initialized(rides_small):
    tabula = Tabula(
        rides_small,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.05, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


class TestTableJson:
    def test_round_trip_with_categories(self, rides_tiny):
        payload = table_to_json(rides_tiny)
        restored = table_from_json(payload)
        assert restored.to_pydict() == rides_tiny.to_pydict()

    def test_json_serializable(self, rides_tiny):
        json.dumps(table_to_json(rides_tiny))


class TestSaveLoad:
    def test_round_trip_preserves_answers(self, initialized, rides_small, tmp_path):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        restored = load_cube(path, rides_small)
        for query in ({"payment_type": "cash"}, {"passenger_count": "2"}, None):
            original = initialized.query(query)
            loaded = restored.query(query)
            assert loaded.source == original.source
            assert loaded.sample.num_rows == original.sample.num_rows
            assert loaded.sample.to_pydict() == original.sample.to_pydict()

    def test_guarantee_survives_round_trip(self, initialized, rides_small, tmp_path):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        restored = load_cube(path, rides_small)
        loss = restored.config.loss
        cube = CubeCells(rides_small, ATTRS)
        values = loss.extract(rides_small)
        for key in cube:
            query = {a: v for a, v in zip(ATTRS, key) if v is not None}
            result = restored.query(query)
            assert loss.loss(values[cube.cell_indices(key)], loss.extract(result.sample)) <= 0.05 + 1e-12

    def test_memory_breakdown_close(self, initialized, rides_small, tmp_path):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        restored = load_cube(path, rides_small)
        original = initialized.memory_breakdown()
        loaded = restored.memory_breakdown()
        assert loaded.sample_table_bytes == original.sample_table_bytes
        assert loaded.cube_table_bytes == original.cube_table_bytes

    def test_report_unavailable_on_restored(self, initialized, rides_small, tmp_path):
        from repro.errors import CubeNotInitializedError

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        restored = load_cube(path, rides_small)
        with pytest.raises(CubeNotInitializedError):
            restored.report


class TestErrors:
    def test_missing_file(self, rides_small, tmp_path):
        with pytest.raises(PersistenceError, match="no cube file"):
            load_cube(tmp_path / "nope.json", rides_small)

    def test_corrupt_file(self, rides_small, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="corrupt"):
            load_cube(path, rides_small)

    def test_unknown_version(self, initialized, rides_small, tmp_path):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="version"):
            load_cube(path, rides_small)

    def test_unregistered_loss(self, initialized, rides_small, tmp_path):
        from repro.core.persistence import _section_crc

        path = tmp_path / "cube.json"
        save_cube(initialized, path, loss_declaration="CREATE AGGREGATE ...")
        payload = json.loads(path.read_text())
        payload["loss"]["name"] = "custom_loss_not_registered"
        # Keep the envelope consistent: this test is about the registry,
        # not corruption detection.
        payload["envelope"]["checksums"]["loss"] = _section_crc(payload["loss"])
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="not registered"):
            load_cube(path, rides_small)

    def test_persistence_error_names_section_and_path(self):
        error = PersistenceError(
            "bad bytes", code="TAB505", section="cube_table", path="/tmp/c.json"
        )
        assert error.code == "TAB505"
        assert error.section == "cube_table"
        assert "TAB505" in str(error)
        assert "cube_table" in str(error)
        assert "/tmp/c.json" in str(error)
        assert isinstance(error, TabulaError)

    def test_attach_store_attr_mismatch(self, initialized, rides_small, tmp_path):
        from repro.errors import InvalidQueryError

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        other = Tabula(
            rides_small,
            TabulaConfig(
                cubed_attrs=("vendor_name",), threshold=0.05, loss=MeanLoss("fare_amount")
            ),
        )
        restored = load_cube(path, rides_small)
        with pytest.raises(InvalidQueryError):
            other.attach_store(restored.store)


def _corrupt_one_sample(path, sid=None):
    """Flip a value inside one persisted sample (the first, or ``sid``)
    without fixing its CRC.

    Returns the (int) sample id that was tampered with.
    """
    document = json.loads(path.read_text())
    sid = next(iter(document["sample_table"])) if sid is None else str(sid)
    payload = document["sample_table"][sid]
    column = next(c for c in payload["columns"] if c["name"] == "fare_amount")
    column["data"][0] = float(column["data"][0]) + 1e6
    path.write_text(json.dumps(document))
    return int(sid)


class TestCrashSafety:
    """A crash mid-save must never clobber the existing cube file."""

    @pytest.mark.faults
    @pytest.mark.parametrize("point", ["persist.atomic.tmp_written", "persist.atomic.before_replace"])
    def test_partial_save_preserves_previous_cube(
        self, initialized, rides_small, tmp_path, point
    ):
        from repro.resilience.faults import CrashPoint, InjectedCrash, inject

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        before = path.read_bytes()
        with inject(CrashPoint(point)):
            with pytest.raises(InjectedCrash):
                save_cube(initialized, path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        load_cube(path, rides_small)  # still a valid cube


class TestCorruptionRecovery:
    def test_raise_mode_names_the_sample_and_path(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        sid = _corrupt_one_sample(path)
        with pytest.raises(PersistenceError) as excinfo:
            load_cube(path, rides_small)
        assert excinfo.value.code == "TAB506"
        assert excinfo.value.section == f"sample_table/{sid}"
        assert str(path) in str(excinfo.value)

    def test_degrade_mode_loads_and_answers_without_raising(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        sid = _corrupt_one_sample(path)
        restored = load_cube(path, rides_small, on_corruption="degrade")
        report = restored.last_load_report
        assert report.corrupt_samples == {sid: "TAB506"}
        assert report.degraded_cells and not report.repaired_cells
        for cell in report.degraded_cells:
            query = {a: v for a, v in zip(ATTRS, cell) if v is not None}
            result = restored.query(query)
            assert result.source in ("representative", "global", "raw")
            assert result.guarantee.name in ("CERTIFIED", "DOWNGRADED")

    def test_repair_mode_redraws_a_certified_sample(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        _corrupt_one_sample(path)
        restored = load_cube(path, rides_small, on_corruption="repair")
        report = restored.last_load_report
        assert report.repaired_cells
        for cell in report.repaired_cells:
            query = {a: v for a, v in zip(ATTRS, cell) if v is not None}
            result = restored.query(query)
            assert result.source == "local"
            assert restored.actual_loss(query) <= 0.05 + 1e-12

    @pytest.mark.parametrize(
        "build",
        [{}, {"seed": 7, "pool_size": 500}],
        ids=["defaults", "seed7-pool500"],
    )
    def test_repair_redraws_the_rows_the_build_drew(self, rides_small, tmp_path, build):
        """A cell's sample is a function of (its rows, config): repairing
        a damaged pool-drawing cell reproduces the build's own draw."""
        loss = MeanLoss("fare_amount")
        config = TabulaConfig(
            cubed_attrs=ATTRS, threshold=0.05, loss=loss, sample_selection=False, **build
        )
        all_loss = loss.loss(
            loss.extract(rides_small),
            loss.extract(
                draw_global_sample(rides_small, np.random.default_rng(config.seed)).table
            ),
        )
        config.threshold = all_loss / 2  # makes the 3000-row "All" cell iceberg
        built = Tabula(rides_small, config)
        built.initialize()
        cell = (None, None)
        entry = next(c for c in built.real_run_result.cells if c.key == cell)
        assert len(entry.raw_indices) > config.pool_size, "cell draws no pool"
        sid = built.store.sample_id_of(cell)
        path = tmp_path / "cube.json"
        save_cube(built, path)
        _corrupt_one_sample(path, sid)

        restored = load_cube(path, rides_small, on_corruption="repair")
        assert restored.last_load_report.repaired_cells == [cell]
        redrawn = restored.store.sample_for_id(restored.store.sample_id_of(cell))
        assert table_to_json(redrawn) == table_to_json(rides_small.take(entry.sample_indices))

    def test_v1_legacy_file_loads_without_checksums(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        document = json.loads(path.read_text())
        del document["envelope"]
        document["format_version"] = 1
        path.write_text(json.dumps(document))
        restored = load_cube(path, rides_small)
        result = restored.query({"payment_type": "cash"})
        assert result.sample.num_rows > 0


class TestBuildParameters:
    """The loaded config is the saved config."""

    def test_build_fields_round_trip(self, rides_small, tmp_path):
        config = TabulaConfig(
            cubed_attrs=ATTRS,
            threshold=0.05,
            loss=MeanLoss("fare_amount"),
            seed=7,
            pool_size=500,
            lazy_sampling=False,
            sample_selection=False,
        )
        built = Tabula(rides_small, config)
        built.initialize()
        path = tmp_path / "cube.json"
        save_cube(built, path)
        loaded = load_cube(path, rides_small).config
        for name in ("seed", "pool_size", "lazy_sampling", "sample_selection", "epsilon", "delta"):
            assert getattr(loaded, name) == getattr(config, name), name

    def test_file_without_build_section_loads_with_defaults(
        self, initialized, rides_small, tmp_path
    ):
        """Every file written before the section existed still loads."""
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        document = json.loads(path.read_text())
        del document["build"]
        del document["envelope"]["checksums"]["build"]
        path.write_text(json.dumps(document))
        restored = load_cube(path, rides_small)
        defaults = TabulaConfig(cubed_attrs=ATTRS, threshold=0.05, loss=MeanLoss("fare_amount"))
        for name in ("seed", "pool_size", "lazy_sampling", "sample_selection"):
            assert getattr(restored.config, name) == getattr(defaults, name), name
        assert restored.store.content_digest() == initialized.store.content_digest()

    def test_tampered_build_section_is_fatal(self, initialized, rides_small, tmp_path):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        document = json.loads(path.read_text())
        document["build"]["seed"] = 8
        path.write_text(json.dumps(document))
        with pytest.raises(PersistenceError) as excinfo:
            load_cube(path, rides_small)
        assert excinfo.value.failures == (("build", "TAB505"),)


class TestVerifyCubeFile:
    def test_intact_file_verifies(self, initialized, tmp_path):
        from repro.core.persistence import verify_cube_file

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        report = verify_cube_file(path)
        assert report.ok
        assert report.format_version == 2
        assert report.failures == ()

    def test_corrupt_sample_is_flagged_not_raised(self, initialized, tmp_path):
        from repro.core.persistence import verify_cube_file

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        sid = _corrupt_one_sample(path)
        report = verify_cube_file(path)
        assert not report.ok
        assert [f.code for f in report.failures] == ["TAB506"]
        assert f"sample_table/{sid}" in report.failures[0].section

    def test_missing_file_reports_tab501(self, tmp_path):
        from repro.core.persistence import verify_cube_file

        report = verify_cube_file(tmp_path / "nope.json")
        assert not report.ok
        assert report.failures[0].code == "TAB501"


def _corrupt_samples(path, count):
    """Tamper ``count`` persisted samples without fixing their CRCs.

    Returns the (int) sample ids touched, in document order.
    """
    document = json.loads(path.read_text())
    touched = []
    for sid, payload in list(document["sample_table"].items())[:count]:
        column = next(c for c in payload["columns"] if c["name"] == "fare_amount")
        column["data"][0] = float(column["data"][0]) + 1e6
        touched.append(int(sid))
    path.write_text(json.dumps(document))
    return touched


class TestMultiCorruptionReporting:
    """Validation reports *every* corrupt section in one pass, so an
    operator repairs a damaged file in one round trip instead of
    replaying load-fail-fix cycles section by section."""

    def test_raise_mode_names_every_corrupt_sample(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        touched = _corrupt_samples(path, count=2)
        assert len(touched) == 2
        with pytest.raises(PersistenceError) as excinfo:
            load_cube(path, rides_small)
        error = excinfo.value
        # Single-failure API unchanged: code/section are the first hit.
        assert error.code == "TAB506"
        assert error.section == f"sample_table/{touched[0]}"
        # But the error carries (and the message names) every failure.
        assert set(error.failures) == {
            (f"sample_table/{sid}", "TAB506") for sid in touched
        }
        for sid in touched:
            assert f"sample_table/{sid}" in str(error)

    def test_fatal_sections_collected_not_first_only(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        document = json.loads(path.read_text())
        document["cube_table"] = []  # checksum now stale
        document["known_cells"] = []  # this one too
        path.write_text(json.dumps(document))
        with pytest.raises(PersistenceError) as excinfo:
            load_cube(path, rides_small)
        error = excinfo.value
        failed_sections = {section for section, _ in error.failures}
        assert failed_sections == {"cube_table", "known_cells"}
        assert all(code == "TAB505" for _, code in error.failures)
        assert "cube_table" in str(error) and "known_cells" in str(error)

    def test_missing_and_corrupt_sections_combine(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        document = json.loads(path.read_text())
        del document["known_cells"]  # missing (TAB504)
        document["cube_table"] = []  # corrupt (TAB505)
        path.write_text(json.dumps(document))
        with pytest.raises(PersistenceError) as excinfo:
            load_cube(path, rides_small)
        codes = dict(excinfo.value.failures)
        assert codes["known_cells"] == "TAB504"
        assert codes["cube_table"] == "TAB505"

    def test_degrade_mode_recovers_every_corrupt_sample(
        self, initialized, rides_small, tmp_path
    ):
        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        touched = _corrupt_samples(path, count=2)
        restored = load_cube(path, rides_small, on_corruption="degrade")
        assert set(restored.last_load_report.corrupt_samples) == set(touched)

    def test_verify_cube_file_also_lists_every_failure(
        self, initialized, tmp_path
    ):
        from repro.core.persistence import verify_cube_file

        path = tmp_path / "cube.json"
        save_cube(initialized, path)
        touched = _corrupt_samples(path, count=2)
        report = verify_cube_file(path)
        assert not report.ok
        failed = {f.section for f in report.failures}
        assert failed == {f"sample_table/{sid}" for sid in touched}
