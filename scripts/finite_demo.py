"""Walk the finite-state pipeline end to end on a kernel file.

Prints the max cycle mean, the Kleene star, the recurrence classes, the
Martin columns with their spectral data, and a greedy downhill path from
each state along the first minimal column.  Good for eyeballing what the
library computes before scripting against it.
"""

import argparse
import os

from maxplus_martin import (
    downhill_path,
    format_value,
    geodesic_limit,
    kleene_star,
    martin_kernel,
    max_cycle_mean,
    minimal_martin_space,
    mu,
    normalize,
    spectral_measure,
)
from maxplus_martin.fileio import load_kernel

DEFAULT = os.path.join(os.path.dirname(__file__), "..", "data",
                       "two_state.json")


def show_matrix(rows, states):
    width = max(len(format_value(v)) for row in rows for v in row)
    width = max(width, *(len(s) for s in states))
    head = " ".join(f"{s:>{width}}" for s in states)
    print(f"  {'':>{width}} {head}")
    for label, row in zip(states, rows):
        body = " ".join(f"{format_value(v):>{width}}" for v in row)
        print(f"  {label:>{width}} {body}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kernel", nargs="?", default=DEFAULT)
    parser.add_argument("--eps", type=float, default=1e-3)
    args = parser.parse_args()

    kernel = load_kernel(args.kernel)
    lam = max_cycle_mean(kernel)
    print(f"kernel {args.kernel}")
    print(f"max cycle mean: {format_value(lam)}")
    kernel = normalize(kernel, lam)
    star = kleene_star(kernel)
    print("Kleene star of the normalized kernel:")
    show_matrix(star.entries, kernel.states)

    objects = martin_kernel(star)
    print(f"{len(objects)} Martin column(s):")
    for obj in objects:
        members = ", ".join(kernel.states[i] for i in obj.members)
        tags = [t for t, on in (("harmonic", obj.harmonic),
                                ("minimal", obj.harmonic)) if on]
        column = " ".join(format_value(v) for v in obj.column)
        print(f"  class {{{members}}}: ({column}) {' '.join(tags)}")

    minimal = minimal_martin_space(star)
    if not minimal:
        print("no harmonic columns; nothing to descend along")
        return
    h = minimal[0].column
    measure = spectral_measure(h, minimal, star)
    pretty = {kernel.states[w.representative]: format_value(c)
              for w, c in measure.items()}
    print(f"spectral measure of the first minimal column: {pretty}")

    print(f"greedy downhill paths (eps = {args.eps:g}):")
    for start in range(kernel.n):
        path = downhill_path(kernel, h, start, args.eps, length=3 * kernel.n)
        limit = geodesic_limit(path, star, args.eps)
        walk = " -> ".join(kernel.states[s] for s in path.states)
        weight = format_value(mu(h, limit, star))
        print(f"  {walk}")
        print(f"    settles in class of {kernel.states[limit.representative]}"
              f" with density {weight}")


if __name__ == "__main__":
    main()
