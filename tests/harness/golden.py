"""The golden record: pinned command lines and the digests they produce.

``golden_digests.json`` maps each pinned run's name to its command line
(``args``, as passed to ``python -m repro.harness``) and to the values
its reports must reproduce, one per report in run order (one per seed):
``digests``, plus overload's ``unprotected_digests`` and scale's
``plan_digests`` where recorded.  Tier-1 and CI compare reports with
the record through :func:`mismatches`; from the command line::

    python tests/harness/golden.py NAME REPORT.json

exits 1 when the report written by ``NAME``'s command line does not
reproduce the record.
"""

import json
import pathlib
import sys

PATH = pathlib.Path(__file__).with_name("golden_digests.json")
GOLDEN = json.loads(PATH.read_text())["experiments"]

#: recorded field -> how to read its value off one report
FIELDS = {
    "digests": lambda report: report["digest"],
    "unprotected_digests": lambda report: report["unprotected"]["digest"],
    "plan_digests": lambda report: [
        transition["plan"]["digest"] for transition in report["transitions"]
    ],
}


def mismatches(name: str, result: dict) -> list:
    """What in ``result`` (a ``--report`` file's contents) departs from
    the record of ``name``: one line per differing field."""
    entry = GOLDEN[name]
    lines = []
    for field, read in FIELDS.items():
        if field in entry:
            got = [read(report) for report in result["reports"]]
            if got != entry[field]:
                lines.append("%s %s: %s, recorded %s"
                             % (name, field, got, entry[field]))
    return lines


def main(argv) -> int:
    name, path = argv
    lines = mismatches(name, json.loads(pathlib.Path(path).read_text()))
    print("\n".join(lines) or "%s matches the golden record" % name)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
