"""Print the golden corpus's readings: ``python tests/corpus_readings.py``.

For every case of ``tests/golden/corpus.txt`` it runs the installed
``udrs parse --readings`` and ``udrs parse --json --readings`` with the
case's ``disambiguate:`` directives and the corpus's rules file, and prints
each run's exit code, stdout and stderr.  It then does the same for
``udrs parse --readings`` of two long discourses that a labelling search
branching on every tie would not finish: the alternating discourse at 12
sentences and the four-sentence cycle at 24 (the families that
``tests/test_cost_bounds.py`` counts steps on).
Run it under two values of ``PYTHONHASHSEED`` and compare each output with
``tests/golden/corpus_readings.txt``: reading identity and the printed names
must not follow set iteration order, and a change to a printed reading shows
as a change to that file.  After a deliberate change, regenerate it with
``python tests/corpus_readings.py > tests/golden/corpus_readings.txt``.
Exits nonzero when no run succeeds, so that equal outputs mean something.
"""

import subprocess
import sys
from pathlib import Path

from udrs.cli import _read_corpus

GOLDEN = Path(__file__).parent / "golden"
ALTERNATING = "John hired a lawyer. John hired a student."
CYCLE = "John hired a lawyer. Mary met a clerk. John hired a student. Mary met a secretary."
LONG = [("alternating x6", " ".join([ALTERNATING] * 6)), ("cycle x6", " ".join([CYCLE] * 6))]


def main() -> None:
    succeeded = 0

    def parse(name: str, args: list[str]) -> None:
        nonlocal succeeded
        run = subprocess.run(["udrs", "parse", *args], capture_output=True, text=True)
        succeeded += run.returncode == 0
        print(f"== {name}: exit {run.returncode}")
        print(run.stdout, end="")
        print("-- stderr")
        print(run.stderr, end="")

    for case in _read_corpus(str(GOLDEN / "corpus.txt")):
        directives = [arg for d in case.disambiguate for arg in ("--disambiguate", d)]
        for mode in (["--readings"], ["--json", "--readings"]):
            parse(f"{case.name} {' '.join(mode)}",
                  [case.input, *directives, *mode, "--rules", str(GOLDEN / "rules.txt")])
    for name, text in LONG:
        parse(f"{name} --readings", [text, "--readings"])
    if not succeeded:
        sys.exit("no udrs parse run succeeded")


if __name__ == "__main__":
    main()
