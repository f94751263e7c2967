"""Set-up cost of one CLI invocation, measured in a fresh process.

Usage: python3 setup_probe.py SRC_DIR [N,PX,PY ...]

Times ``import finsler.cli`` and then one ``jets.get_space`` call per
given jet space, and prints ``{"import_s": ..., "spaces_s": ...}``.
"""

import json
import sys
import time


def main(argv):
    sys.path.insert(0, argv[0])
    start = time.perf_counter()
    import finsler.cli  # noqa: F401
    imported = time.perf_counter()
    from finsler import jets
    for key in argv[1:]:
        jets.get_space(*(int(v) for v in key.split(",")))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "spaces_s": done - imported}))


if __name__ == "__main__":
    main(sys.argv[1:])
