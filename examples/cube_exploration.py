"""Inside the initializer: dry-run artifacts and sample selection.

Run:  python examples/cube_exploration.py

Reproduces the paper's illustrative artifacts on a small cube:
- the annotated cuboid lattice of Figure 5a,
- the iceberg cell tables of Table I,
- the physical cube/sample tables of Figure 4 with shared sample ids.
"""

from repro import HistogramLoss, Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.cube import format_cell

ATTRS = ("passenger_count", "payment_type", "rate_code")


def main() -> None:
    rides = generate_nyctaxi(num_rows=25_000, seed=2)
    config = TabulaConfig(
        cubed_attrs=ATTRS,
        threshold=0.03,  # dollars of average-min-distance on fares
        loss=HistogramLoss("fare_amount"),
    )
    tabula = Tabula(rides, config)
    report = tabula.initialize()
    dry = tabula.dry_run_result

    print("=== Figure 5a: annotated cuboid lattice ===")
    print("(cells, iceberg cells); * marks iceberg cuboids\n")
    print(report.lattice.format())

    print("\n=== Table Ia: iceberg cell table (first 12 rows) ===")
    for cell in dry.iceberg_cells[:12]:
        print(f"  {format_cell(cell)}   loss={dry.cell_losses[cell]:.4f}")

    print("\n=== Table Ib-d: per-cuboid iceberg cell tables ===")
    for gset, cells in dry.iceberg_cells_by_cuboid.items():
        if cells and len(gset) <= 1:
            label = ",".join(gset) if gset else "All"
            print(f"  cuboid {label}: {[format_cell(c) for c in cells[:4]]}"
                  + (" ..." if len(cells) > 4 else ""))

    print("\n=== Figure 4: physical layout ===")
    store = tabula.store
    cube_table = store.cube_table()
    print(f"cube table ({cube_table.num_rows} iceberg cells):")
    print(cube_table.format(limit=10))
    sizes = store.sample_sizes()
    print(f"\nsample table ({len(sizes)} representative samples):")
    for sid, size in list(sizes.items())[:10]:
        print(f"  sample {sid}: {size} tuples")
    shared = cube_table.num_rows - len(sizes)
    print(
        f"\nSample selection let {shared} iceberg cells reuse another cell's sample "
        f"({report.num_local_samples} local samples -> {report.num_representatives} persisted)."
    )


if __name__ == "__main__":
    main()
