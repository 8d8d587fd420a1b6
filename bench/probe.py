"""One set-up sample, in a fresh interpreter: import udrs, load the default
lexicon, finish the first parse.  Prints the import, lexicon and total times as JSON."""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import udrs  # noqa: E402
t1 = perf_counter()
lexicon = udrs.Lexicon.default()
t2 = perf_counter()
udrs.build_session("John left.", lexicon)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "lexicon_s": t2 - t1, "setup_s": t3 - t0}))
