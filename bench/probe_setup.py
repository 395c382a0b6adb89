"""Set-up cost of one fresh process: import the CLI and parse the first op's documents.

    python3 bench/probe_setup.py SRC_DIR SYSTEM.json [PARTITION.json]

Prints the elapsed seconds.  Interpreter start-up itself is not included.
"""

import sys
import time


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import entropy_lab.cli  # noqa: F401  (the import is what is being timed)
    from entropy_lab.documents import load_json, parse_partition, parse_system

    system = parse_system(load_json(argv[1]))
    for path in argv[2:]:
        parse_partition(load_json(path), system)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
