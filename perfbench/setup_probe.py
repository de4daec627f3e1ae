"""One cold set-up: import the randseries CLI and build a workload's coefficient models.

Usage: python3 perfbench/setup_probe.py SET[;WEIGHTS] ...
Prints the seconds taken; interpreter start-up itself is not included.
"""

import sys
import time


def main(specs: list[str]) -> float:
    t0 = time.perf_counter()
    from randseries import cli  # noqa: F401
    from randseries.coefficients import parse_model

    for spec in specs:
        values, _, weights = spec.partition(";")
        parse_model(values, weights or None)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
