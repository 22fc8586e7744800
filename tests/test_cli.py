"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.data import generate_nyctaxi
from repro.engine.io import read_csv, write_csv


@pytest.fixture()
def rides_csv(tmp_path):
    path = tmp_path / "rides.csv"
    write_csv(generate_nyctaxi(num_rows=1500, seed=3), path)
    return path


@pytest.fixture()
def cube_file(rides_csv, tmp_path):
    path = tmp_path / "cube.json"
    code = main(
        [
            "build",
            "--table", str(rides_csv),
            "--attrs", "passenger_count,payment_type",
            "--loss", "mean_loss",
            "--target", "fare_amount",
            "--theta", "0.1",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "taxi.csv"
        assert main(["generate", "--rows", "200", "--out", str(out)]) == 0
        assert read_csv(out).num_rows == 200
        assert "200 rides" in capsys.readouterr().out


class TestBuild:
    def test_build_writes_cube(self, cube_file):
        document = json.loads(cube_file.read_text())
        assert document["cubed_attrs"] == ["passenger_count", "payment_type"]
        assert document["threshold"] == 0.1

    def test_build_with_checkpoint_dir(self, rides_csv, tmp_path):
        out = tmp_path / "cube.json"
        ckpt = tmp_path / "ckpt"
        code = main(
            [
                "build",
                "--table", str(rides_csv),
                "--attrs", "passenger_count,payment_type",
                "--loss", "mean_loss",
                "--target", "fare_amount",
                "--theta", "0.1",
                "--out", str(out),
                "--checkpoint-dir", str(ckpt),
            ]
        )
        assert code == 0
        assert out.exists()
        assert ckpt.is_dir() and any(ckpt.iterdir())

    def test_build_with_custom_loss_sql(self, rides_csv, tmp_path, capsys):
        loss_sql = tmp_path / "loss.sql"
        loss_sql.write_text(
            "CREATE AGGREGATE my_loss(Raw, Sam) RETURN decimal_value AS "
            "BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END"
        )
        out = tmp_path / "cube2.json"
        code = main(
            [
                "build",
                "--table", str(rides_csv),
                "--attrs", "payment_type",
                "--loss", "my_loss",
                "--target", "fare_amount",
                "--theta", "0.1",
                "--loss-sql", str(loss_sql),
                "--out", str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["loss"]["name"] == "my_loss"
        assert "CREATE AGGREGATE" in document["loss"]["declaration"]

    @pytest.mark.parametrize("theta", ["nan", "0", "-0.1"])
    def test_build_rejects_non_positive_theta(self, rides_csv, tmp_path, theta, capsys):
        out = tmp_path / "cube.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "build",
                    "--table", str(rides_csv),
                    "--attrs", "payment_type",
                    "--target", "fare_amount",
                    f"--theta={theta}",
                    "--out", str(out),
                ]
            )
        assert excinfo.value.code == 2
        assert "θ must be > 0" in capsys.readouterr().err
        assert not out.exists()


class TestQuery:
    def test_query_prints_answer(self, cube_file, rides_csv, capsys):
        code = main(
            [
                "query",
                "--cube", str(cube_file),
                "--table", str(rides_csv),
                "--where", "payment_type=cash",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "source=" in out
        assert "rows=" in out

    def test_bad_where_clause(self, cube_file, rides_csv, capsys):
        code = main(
            [
                "query",
                "--cube", str(cube_file),
                "--table", str(rides_csv),
                "--where", "nonsense",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInfo:
    def test_info_summarizes(self, cube_file, capsys):
        assert main(["info", "--cube", str(cube_file)]) == 0
        out = capsys.readouterr().out
        assert "threshold θ:      0.1" in out
        assert "iceberg cells:" in out
        assert "build:            seed=0, lazy_sampling=True" in out


class TestCubeVerify:
    def test_intact_cube_verifies_clean(self, cube_file, capsys):
        assert main(["cube", "verify", str(cube_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_corrupted_sample_is_reported(self, cube_file, capsys):
        document = json.loads(cube_file.read_text())
        sid, payload = next(iter(document["sample_table"].items()))
        column = next(c for c in payload["columns"] if c["name"] == "fare_amount")
        column["data"][0] = 999999.0
        cube_file.write_text(json.dumps(document))
        assert main(["cube", "verify", str(cube_file)]) == 1
        out = capsys.readouterr().out
        assert "TAB506" in out
        assert "verdict: CORRUPT" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["cube", "verify", str(tmp_path / "nope.json")]) == 1
        assert "TAB501" in capsys.readouterr().out


class TestSQL:
    def test_sql_statements_run_in_order(self, rides_csv, capsys):
        code = main(
            [
                "sql",
                "--table", str(rides_csv),
                "CREATE AGGREGATE l(Raw, Sam) RETURN d AS "
                "BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END",
                "CREATE TABLE c AS SELECT payment_type, SAMPLING(*, 0.1) AS sample "
                "FROM rides GROUPBY CUBE(payment_type) "
                "HAVING l(fare_amount, Sam_global) > 0.1",
                "SELECT sample FROM c WHERE payment_type = 'cash'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cube initialized" in out
        assert "source=" in out

    def test_plain_select(self, rides_csv, capsys):
        code = main(
            ["sql", "--table", str(rides_csv), "SELECT fare_amount FROM rides LIMIT 3"]
        )
        assert code == 0
        assert "fare_amount" in capsys.readouterr().out


class TestBuildWorkers:
    def _build(self, rides_csv, out, extra):
        return main(
            [
                "build",
                "--table", str(rides_csv),
                "--attrs", "passenger_count,payment_type",
                "--loss", "mean_loss",
                "--target", "fare_amount",
                "--theta", "0.1",
                "--out", str(out),
                *extra,
            ]
        )

    def test_workers_flag_builds_identical_cube(self, rides_csv, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert self._build(rides_csv, serial, ["--workers", "1"]) == 0
        assert self._build(rides_csv, parallel, ["--workers", "3"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_workers_with_checkpoint_dir(self, rides_csv, tmp_path):
        out = tmp_path / "cube.json"
        code = self._build(
            rides_csv,
            out,
            ["--workers", "2", "--checkpoint-dir", str(tmp_path / "ckpt")],
        )
        assert code == 0
        assert out.exists()

    def test_rejects_zero_workers(self, rides_csv, tmp_path, capsys):
        with pytest.raises(ValueError):
            self._build(rides_csv, tmp_path / "cube.json", ["--workers", "0"])


class TestBenchCommandIsGone:
    def test_bench_is_not_a_subcommand(self, capsys):
        """``perf/run.py`` is the benchmark of record; a stale doc or script
        line that still invokes the old subcommand must fail loudly."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "cube"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_arguments_parse_and_wire(self, cube_file, rides_csv):
        """The serve command is wired with its robustness knobs; the
        blocking server itself is exercised by tests/serving/test_http.py
        and scripts/serving_smoke.py."""
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(
            [
                "serve",
                "--cube", str(cube_file),
                "--table", str(rides_csv),
                "--port", "18999",
                "--workers", "2",
                "--queue-depth", "5",
                "--deadline", "0.5",
            ]
        )
        assert args.handler is cmd_serve
        assert args.queue_depth == 5
        assert args.deadline == 0.5
        assert args.min_service_seconds == 0.0

    def test_serve_boots_and_answers_over_http(self, cube_file, rides_csv):
        import threading
        import urllib.request

        from repro.core.persistence import loss_registry, open_cube
        from repro.serving import ServingConfig, ServingGateway
        from repro.serving.http import make_server

        gateway = ServingGateway(
            open_cube(cube_file, rides_csv),
            cube_path=cube_file,
            registry=loss_registry(None),
            config=ServingConfig(workers=1, queue_depth=4),
        )
        server = make_server(gateway, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = (
                f"http://127.0.0.1:{server.server_address[1]}"
                "/query?payment_type=cash&limit=2"
            )
            with urllib.request.urlopen(url, timeout=10) as response:
                body = json.load(response)
            assert response.status == 200
            assert body["outcome"] in ("ok", "degraded")
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()
