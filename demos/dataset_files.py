"""The on-disk dataset contract.

Datasets are a JSON manifest naming headerless CSV matrices: grid (node
coordinates + quadrature weight per row), fields (one row per snapshot),
times, optional 0/1 fluid masks, and an optional boundary-parameter table
whose header row carries the parameter names.  Benchmark generators write
this format, so they double as fixtures for the reader.
"""

import json
import tempfile
from pathlib import Path

from mbrom import (
    BubbleConfig,
    bubble_snapshots,
    build,
    load_snapshots,
    save_dataset,
)

snaps, _ = bubble_snapshots(BubbleConfig(nr=50), 51.0, 60.0, 10)

# the files live only as long as this block
with tempfile.TemporaryDirectory(prefix="mbrom_demo_") as workdir:
    manifest = save_dataset(snaps, Path(workdir) / "bubble")
    print(f"wrote {manifest.parent}/")
    for path in sorted(manifest.parent.iterdir()):
        print(f"  {path.name:14s} {path.stat().st_size:7d} bytes")

    print("\nmanifest.json:")
    print(json.dumps(json.loads(manifest.read_text()), indent=2, sort_keys=True))

    print("\nboundary.csv head:")
    for line in (manifest.parent / "boundary.csv").read_text().splitlines()[:4]:
        print(f"  {line}")

    # the round trip is exact: 17 significant digits per value
    again = load_snapshots(manifest)
    assert (again.fields == snaps.fields).all()
    assert again.boundary.names == ["R"]
    print("\nreloaded dataset matches the generated one exactly")

# loaded datasets drive the same pipeline as in-memory ones
model = build(again)
print(f"built a {model.basis.retained}-mode model straight from the files; "
      f"t* = {model.t_star:.2f}")
