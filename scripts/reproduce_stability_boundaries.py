#!/usr/bin/env python3
"""Zero-real-part boundary curves in the (maturity, biomass) plane.

Each preset writes curves.csv plus frequency_profile.csv (the companion
frequency-versus-maturity data) under its own directory.  The quick set
covers the constant-response panels and the looping curve of the
saturating response with juvenile mortality; --full adds the multi-curve
zero-mortality panels, which seed many frequency windows.  Those three take
about 0.1, 0.9 and 1.8 s, and the whole --full set about 7.5 s (single
runs on a 2-core Xeon with Python 3.11).
"""

import argparse
import sys

from tde_plankton.cli import main as cli_main

QUICK = ("fig2-left", "fig2-right", "fig4-l0.159-dd")
FULL = ("fig4-l0.01-d0", "fig4-l0.159-d0", "fig4-l1.00-d0")


def run(out: str, full: bool) -> int:
    presets = QUICK + (FULL if full else ())
    for preset in presets:
        code = cli_main(["trace-boundary", "--preset", preset, "--out", f"{out}/{preset}"])
        if code != 0:
            return code
        print(f"{preset}: wrote curves to {out}/{preset}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output root directory")
    ap.add_argument("--full", action="store_true",
                    help="also trace the multi-curve zero-mortality panels "
                         "(about 3 s more)")
    args = ap.parse_args()
    sys.exit(run(args.out, args.full))
