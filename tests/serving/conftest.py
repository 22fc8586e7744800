"""Shared plumbing for the serving tests.

A raw HTTP POST helper for the malformed-request cases, and the
cluster plumbing for the sharded-serving integration tests:
boots *real* shard-worker subprocesses (``python -m
repro.serving.shard_worker``) over a small cube built once per session,
with a fast supervision config so kill/restart cycles complete in
seconds, not the production half-minute.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import urllib.parse
from pathlib import Path

import pytest

import repro
from repro.core.loss import MeanLoss
from repro.core.persistence import load_cube, save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.engine.io import read_csv, write_csv
from repro.engine.schema import ColumnType
from repro.serving.placement import Placement, shard_transform
from repro.serving.router import RouterConfig, ShardRouter
from repro.serving.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    default_worker_factory,
)

CLUSTER_ATTRS = ("passenger_count", "payment_type")

#: Production supervision reacts in ~1.5s; tests in ~0.3s.
FAST_SUPERVISION = SupervisorConfig(
    heartbeat_interval_seconds=0.1,
    heartbeat_timeout_seconds=0.3,
    liveness_misses=2,
    backoff_base_seconds=0.05,
    backoff_cap_seconds=0.5,
    crash_loop_window_seconds=30.0,
    crash_loop_budget=20,
)


@pytest.fixture(scope="session")
def cluster_cube(tmp_path_factory, rides_tiny):
    """``(cube_path, csv_path, tabula)`` for booting worker clusters."""
    workdir = tmp_path_factory.mktemp("cluster_cube")
    csv_path = str(workdir / "rides.csv")
    cube_path = str(workdir / "cube.json")
    write_csv(rides_tiny, csv_path)
    table = read_csv(
        csv_path, types={a: ColumnType.CATEGORY for a in CLUSTER_ATTRS}
    )
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=CLUSTER_ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")
        ),
    )
    tabula.initialize()
    save_cube(tabula, cube_path)
    return cube_path, csv_path, tabula


def worker_env(extra=None):
    """Spawn env with the repo's ``src`` on PYTHONPATH plus chaos vars."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    # Worker subprocesses must not inherit the parent suite's sanitizer
    # arming implicitly; chaos tests opt in explicitly via ``extra``.
    if extra:
        env.update(extra)
    return env


def boot_cluster(
    cube_path,
    csv_path,
    num_shards,
    supervisor_config=None,
    router_config=None,
    env_extra=None,
    extra_argv=None,
):
    """A started :class:`ShardRouter` over ``num_shards`` real workers."""
    placement = Placement(num_shards)

    def worker_argv(shard):
        return [
            sys.executable, "-m", "repro.serving.shard_worker",
            "--cube", cube_path, "--table", csv_path,
            "--shard", str(shard), "--num-shards", str(num_shards),
            "--workers", "2", "--queue-depth", "64",
        ] + list(extra_argv or [])

    supervisor = ShardSupervisor(
        default_worker_factory(
            worker_argv, ready_timeout_seconds=30.0, env=worker_env(env_extra)
        ),
        num_shards,
        config=supervisor_config or FAST_SUPERVISION,
    )
    supervisor.start()
    table = read_csv(
        csv_path, types={a: ColumnType.CATEGORY for a in CLUSTER_ATTRS}
    )
    fallback = shard_transform(placement, None)(load_cube(cube_path, table))
    return ShardRouter(
        supervisor,
        placement,
        fallback,
        config=router_config or RouterConfig(),
        cube_path=cube_path,
    )


def where_for(cell):
    return {a: v for a, v in zip(CLUSTER_ATTRS, cell) if v is not None}


def cells_owned_by(tabula, placement, shard):
    return [
        c for c in tabula.store._cell_to_sample_id if placement.shard_of(c) == shard
    ]


def post_raw(url, body, content_length=None):
    """POST ``body`` bytes with any ``Content-Length``; (status, JSON body).

    A server that drops the connection instead of answering raises here.
    """
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest("POST", parts.path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader(
            "Content-Length", str(len(body)) if content_length is None else content_length
        )
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()
