"""Record the ``grid`` reference objectives into ``reference_grid.json``.

Run once, from the root of the repository, at the commit whose objectives
the ``grid`` output check should hold later commits to:

    python3 perfbench/record_reference.py
"""

import json
import sys

import run


def main():
    run.import_program()
    sys.path.insert(0, str(run.HERE))
    bench = run.Bench("grid", 0)
    bench.setup()
    _, results = bench.solve_for(0.0)
    if bench.errors or any(r.status.value != "optimal"
                           for r in results.values()):
        sys.exit("grid has cells that are not optimal; nothing recorded")
    objectives = {run.cell_id(c): results[c].objective
                  for c in sorted(results)}
    run.REFERENCE.write_text(json.dumps(objectives, indent=1) + "\n")
    print(f"{len(objectives)} objectives written to {run.REFERENCE}")


if __name__ == "__main__":
    main()
