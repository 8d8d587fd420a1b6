"""Check what a cold start loads: ``python tests/cold_start.py``.

In this fresh interpreter, ``import udrs``, the default lexicon and a first
``build_session`` must load none of the reading or serialization layers and
none of the standard modules only they or the command line need; a second
``build_session`` and ``to_json_str``, which is all a parse to JSON runs,
must not load ``udrs.canonical``, nor must a first reading name load the
search or ``udrs.canonical`` with ``udrs.readings``; the full pipeline after them must still
load no ``dataclasses``, and run again with the cycle collector off it must
leave nothing in reference cycles.  Exits nonzero with the offending
modules or the count of objects left otherwise.  Needs only the installed
package (or ``src`` on ``PYTHONPATH``), not pytest, which itself imports
``dataclasses``.
"""

import gc
import sys

ON_FIRST_USE = {"udrs.readings", "udrs.scoping", "udrs.serialize", "udrs.canonical",
                "argparse", "json", "dataclasses"}


def loaded_since(before: set[str]) -> set[str]:
    return set(sys.modules) - before


def main() -> None:
    before = set(sys.modules)
    import udrs
    udrs.build_session("John left.", udrs.Lexicon.default())
    early = loaded_since(before) & ON_FIRST_USE
    if early:
        sys.exit(f"import udrs and a first build_session loaded {sorted(early)}")

    session, _ = udrs.build_session("Every lawyer hired a secretary.")
    if not udrs.to_json_str(session.udrs).startswith("{"):
        sys.exit("to_json_str gave no JSON object")
    if "udrs.canonical" in sys.modules:
        sys.exit("build_session and to_json_str loaded udrs.canonical")
    udrs.build_drs  # a reading name loads readings, but neither the search nor the labelling
    early = {"udrs.scoping", "udrs.canonical"} & set(sys.modules)
    if early:
        sys.exit(f"a reading name loaded {sorted(early)}")
    full_pipeline(session)
    if "dataclasses" in loaded_since(before):
        sys.exit("the full pipeline loaded dataclasses")
    if udrs.enumerate_readings is not sys.modules["udrs.readings"].enumerate_readings:
        sys.exit("udrs.enumerate_readings is not readings.enumerate_readings")

    gc.collect()
    gc.disable()
    try:
        session, _ = udrs.build_session("Every lawyer hired a secretary.")
        udrs.to_json_str(session.udrs)
        full_pipeline(session)
        left = gc.collect()
    finally:
        gc.enable()
    if left:
        sys.exit(f"the full pipeline left {left} objects in reference cycles")
    print("cold start ok")


def full_pipeline(session) -> None:
    import udrs
    readings = udrs.enumerate_readings(session.udrs)
    if len(readings) != 2 or not all(udrs.render_drs(d) for d in readings):
        sys.exit(f"expected 2 rendered readings, got {len(readings)}")


if __name__ == "__main__":
    main()
