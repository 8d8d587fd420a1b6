"""Print the golden corpus's readings: ``python tests/corpus_readings.py``.

For every case of ``tests/golden/corpus.txt`` it runs the installed
``udrs parse --readings`` and ``udrs parse --json --readings`` with the
case's ``disambiguate:`` directives and the corpus's rules file, and prints
each run's exit code, stdout and stderr.  Run it under two values of
``PYTHONHASHSEED`` and compare the two outputs: reading identity and the
printed names must not follow set iteration order.  Exits nonzero when no
run succeeds, so that two equal outputs mean something.
"""

import subprocess
import sys
from pathlib import Path

from udrs.cli import _read_corpus

GOLDEN = Path(__file__).parent / "golden"


def main() -> None:
    succeeded = 0
    for case in _read_corpus(str(GOLDEN / "corpus.txt")):
        directives = [arg for d in case.disambiguate for arg in ("--disambiguate", d)]
        for mode in (["--readings"], ["--json", "--readings"]):
            run = subprocess.run(["udrs", "parse", case.input, *directives, *mode,
                                  "--rules", str(GOLDEN / "rules.txt")],
                                 capture_output=True, text=True)
            succeeded += run.returncode == 0
            print(f"== {case.name} {' '.join(mode)}: exit {run.returncode}")
            print(run.stdout, end="")
            print("-- stderr")
            print(run.stderr, end="")
    if not succeeded:
        sys.exit("no udrs parse run succeeded")


if __name__ == "__main__":
    main()
