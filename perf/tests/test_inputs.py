from perf import inputs

TABLE = inputs.make_table(600)
ATTRS = inputs.CUBE_M.attrs
CELLS = inputs.lattice_cells(TABLE, ATTRS)


def _bodies(stream):
    return [query.body for query in stream]


def test_lattice_has_the_whole_table_cell_and_only_populated_cells():
    assert CELLS[0] == (None,) * len(ATTRS)
    assert len(set(CELLS)) == len(CELLS)
    first = TABLE.column(ATTRS[0])
    assert {c[0] for c in CELLS if c[0] is not None} == {first.value_at(i) for i in range(600)}


def test_streams_are_byte_identical_for_equal_seeds_and_differ_otherwise():
    generators = {
        "cell": lambda seed: _bodies(inputs.cell_stream(ATTRS, CELLS, seed, 200)),
        "viewport": lambda seed: _bodies(inputs.viewport_stream(TABLE, ATTRS, CELLS, seed, 200)),
        "feed": lambda seed: inputs.feed_batches(6, seed),
    }
    for name, generate in generators.items():
        assert generate(3) == generate(3), name
        assert generate(3) != generate(4), name


def test_viewport_stream_follows_the_zoom_script_and_shape_mix():
    stream = inputs.viewport_stream(TABLE, ATTRS, CELLS, 0, 800)
    shapes = [query.geometry["type"] for query in stream[:: len(inputs.ZOOM_SCRIPT)]]
    assert (shapes.count("bbox"), shapes.count("radius"), shapes.count("polygon")) == (70, 20, 10)
    whole_extent = [q for q in stream[:: len(inputs.ZOOM_SCRIPT)] if q.geometry["type"] == "bbox"]
    assert all(q.geometry["xmin"] == 0.0 and q.geometry["xmax"] == 1.0 for q in whole_extent)


def test_inputs_digest_pins_table_and_streams():
    stream = _bodies(inputs.cell_stream(ATTRS, CELLS, 0, 50))
    digest = inputs.inputs_digest(TABLE, [stream])
    assert digest == inputs.inputs_digest(inputs.make_table(600), [list(stream)])
    assert digest != inputs.inputs_digest(TABLE, [stream[:-1]])
    assert digest != inputs.inputs_digest(inputs.make_table(601), [stream])
