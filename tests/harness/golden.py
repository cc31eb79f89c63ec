"""The golden record: every leg's command line and the digests it pins.

``golden_digests.json`` maps each leg's name to its command line
(``args``, as passed to ``python -m repro.harness``).  A pinned leg also
records the ``digests`` its reports must reproduce, one per report in
run order (one per seed); a leg without them is a claims-only seed
sweep, held to its claims and ``--check-determinism`` alone.  Tier-1 and
CI compare reports with the record through :func:`mismatches`; from the
command line::

    python tests/harness/golden.py NAME REPORT.json

exits 1 when the report written by ``NAME``'s command line does not
reproduce the record, and ::

    python tests/harness/golden.py --matrix

prints every leg as CI's ``experiments`` matrix, ``[{name, args}]``.
"""

import json
import pathlib
import sys

PATH = pathlib.Path(__file__).with_name("golden_digests.json")
GOLDEN = json.loads(PATH.read_text())["experiments"]


def mismatches(name: str, result: dict) -> list:
    """What in ``result`` (a ``--report`` file's contents) departs from
    the record of ``name``: one line if its digests differ."""
    recorded = GOLDEN[name].get("digests")
    got = [report["digest"] for report in result["reports"]]
    if recorded is None or got == recorded:
        return []
    return ["%s digests: %s, recorded %s" % (name, got, recorded)]


def matrix() -> list:
    """Every leg, pinned or sweep, as one ``{name, args}`` matrix entry."""
    return [{"name": name, "args": entry["args"]}
            for name, entry in GOLDEN.items()]


def main(argv) -> int:
    if argv == ["--matrix"]:
        print(json.dumps(matrix()))
        return 0
    name, path = argv
    lines = mismatches(name, json.loads(pathlib.Path(path).read_text()))
    print("\n".join(lines) or "%s matches the golden record" % name)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
