#!/usr/bin/env python3
"""Regenerate the golden KKT solution for the double-integrator scenario.

Run from the repository root:

    python scripts/generate_golden.py --out tests/golden/kkt_double_integrator_N64.csv

Nothing is written without ``--out``; ``--help`` writes nothing.  The
golden file is only expected to change when the discretization or the
CSV format changes; regenerating it is a deliberate act, reviewed like
any other golden update.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import phflow as pf
from phflow.cli import write_kkt_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, metavar="PATH",
                        help="the CSV file to write, e.g. "
                             "tests/golden/kkt_double_integrator_N64.csv")
    args = parser.parse_args(argv)
    model = pf.LinearPlantModel(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0], [1.0]]),
        0.0,
        np.array([1.0, 0.0]),
    )
    ocp = pf.assemble_ocp(model, pf.build_grid(1.0, 64),
                          pf.CostSpec(1.0, pf.QuadraticStage(np.eye(2))))
    z_hat = pf.kkt_solve(ocp)
    _, norm = pf.kkt_residual(ocp, z_hat)
    if not norm <= 1e-10:
        print(f"refusing to freeze a sloppy solution ({norm:.3e})", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_kkt_csv(args.out, ocp, z_hat)
    print(f"wrote {args.out} (residual {norm:.3e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
