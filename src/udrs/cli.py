"""Command-line front end.

Subcommands: ``parse`` builds the UDRS for a sentence or short discourse and
prints it as text, JSON or DOT, optionally disambiguating plurals and
enumerating readings; ``corpus`` runs a golden regression file and exits
nonzero on any mismatch.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from .core import UDRS, UDRSError, read_text
from .delay import PendingKey
from .grammar import COORD, DerivationNode, ParseFailure, bracketed, parse, tokenize
from .lexicon import Lexicon, Sign
from .plurals import COLLECTIVE, DISAMBIGUATE, DISTRIBUTIVE, KnowledgeRules
from .principles import Derivation, combine_coord, empty_discourse, interpret

if TYPE_CHECKING:
    import argparse


class Session:
    """Discourse state accumulated across input sentences.

    After each sentence the session UDRS is the coordination of the previous
    session UDRS with the new sentence sign's UDRS.  ``discourses`` holds
    the discourse before the first sentence and after each one; a
    sentence's own sign is its derivation root's ``sign``.  The session is
    the one writer of its registry's current discourse.
    """

    def __init__(self, lexicon: Optional[Lexicon] = None,
                 rules: Optional[KnowledgeRules] = None):
        self.ctx = Derivation.new(lexicon, rules)
        self.discourses: list[Sign] = [empty_discourse(self.ctx)]

    @property
    def udrs(self) -> UDRS:
        return self.discourses[-1].udrs

    def add(self, sentence_root: DerivationNode) -> Sign:
        sign = interpret(sentence_root, self.ctx)
        self.discourses.append(combine_coord(self.discourses[-1], sign, self.ctx))
        self.ctx.registry.discourse = self.udrs
        return sign

    def disambiguate(self, index: int, verdict: str) -> None:
        """Apply a reading to the index-th plural NP (1-based), counted in
        the key log: plural NPs in order of appearance, disambiguated or not.

        The session moves on to a new UDRS value; earlier values, such as
        one read from ``udrs`` before this call, stay as they were.
        """
        if verdict not in DISAMBIGUATE:
            raise UDRSError(f"unknown reading {verdict!r}")
        u = DISAMBIGUATE[verdict](self.udrs, self._plural_key(index))
        self.discourses[-1] = self.discourses[-1]._replace(udrs=u)
        self.ctx.registry.discourse = u

    def _plural_key(self, index: int) -> PendingKey:
        """The key of the index-th plural NP (1-based) in the key log."""
        keys = self.ctx.registry.all_keys()
        if not 1 <= index <= len(keys):
            raise UDRSError(f"no plural NP #{index} (found {len(keys)})")
        return keys[index - 1]


def sentence_roots(node: DerivationNode) -> list[DerivationNode]:
    if node.construction == COORD:
        return sentence_roots(node.head) + sentence_roots(node.nonhead)
    return [node]


def build_session(text: str, lexicon: Optional[Lexicon] = None,
                  rules: Optional[KnowledgeRules] = None,
                  ) -> tuple[Session, list[DerivationNode]]:
    derivations = parse(tokenize(text), lexicon or Lexicon.default())
    if not derivations:
        raise ParseFailure(0, "no input")
    roots = sentence_roots(derivations[0])
    session = Session(lexicon, rules)
    for root in roots:
        session.add(root)
    return session, roots


def build_directed_session(text: str, specs: list[str],
                           lexicon: Optional[Lexicon] = None,
                           rules: Optional[KnowledgeRules] = None,
                           ) -> tuple[Session, list[DerivationNode]]:
    """build_session with ``np<k>=reading`` directives as rule overrides.

    Sequencing applies each directive when it meets the plural, ahead of any
    rule, so an explicit directive always wins over the rules file.
    """
    directives: dict[int, str] = {}
    for spec in specs:
        index, verdict = _parse_disambiguation(spec)
        if directives.setdefault(index, verdict) != verdict:
            raise UDRSError(f"conflicting directives for np{index}")
    if directives:
        rules = (rules or KnowledgeRules()).with_overrides(directives)
    session, roots = build_session(text, lexicon, rules)
    for index in sorted(directives):
        session._plural_key(index)
    return session, roots


def _parse_disambiguation(spec: str) -> tuple[int, str]:
    try:
        name, verdict = spec.split("=", 1)
        if not name.startswith("np"):
            raise ValueError
        index = int(name[2:])
        if verdict not in (COLLECTIVE, DISTRIBUTIVE):
            raise ValueError
        return index, verdict
    except ValueError:
        raise UDRSError(
            f"bad --disambiguate value {spec!r}; expected np<k>=collective|distributive"
        ) from None


def _trace_semantics(session: Session, roots: list[DerivationNode]) -> str:
    """Each sentence's derivation, every node with the constraints it adds
    to its daughters', then each sequencing step's additions to the
    discourse before it and the sentence it sequenced."""
    from .serialize import constraint_text, display_names
    names = display_names(session.udrs)
    lines = []

    def shown(constraints) -> str:
        def n(l):
            return names.get(l, repr(l))
        return ", ".join(sorted(constraint_text(c.kind, n(c.left), n(c.right),
                                                [n(l) for l in c.antecedent or ()])
                                for c in constraints))

    for i, root in enumerate(roots, 1):
        lines.append(f"sentence {i}:")
        _trace_node(root, 1, shown, lines)
    steps = zip(session.discourses, session.discourses[1:], roots)
    for i, (before, after, root) in enumerate(steps, 1):
        added = after.udrs.subord - before.udrs.subord - root.sign.udrs.subord
        if added:
            lines.append(f"discourse {i}: +{{{shown(added)}}}")
    return "\n".join(lines) + "\n"


def _trace_node(node: DerivationNode, depth: int, shown, lines: list[str]) -> None:
    """Add the node's line and its subtree's to lines, constraint sets shown
    by shown."""
    pad = "  " * depth
    if node.construction == "lexical":
        lines.append(f"{pad}{node.word}")
        return
    children = node.children()
    added = node.sign.udrs.subord.difference(*(c.sign.udrs.subord for c in children))
    lines.append(f"{pad}{node.construction}" + (f"  +{{{shown(added)}}}" if added else ""))
    for child in children:
        _trace_node(child, depth + 1, shown, lines)


def cmd_parse(args: argparse.Namespace) -> int:
    import json
    from .serialize import render_text, to_dot, to_json, to_json_str
    lexicon = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.default()
    rules = KnowledgeRules.from_file(args.rules) if args.rules else None
    if args.text is None:
        raise UDRSError("no input: give a sentence")
    session, roots = build_directed_session(args.text, args.disambiguate or [],
                                            lexicon, rules)
    u = session.udrs

    if args.trace_syntax:
        for root in roots:
            print(bracketed(root))
    if args.trace_semantics:
        print(_trace_semantics(session, roots), end="")

    if args.dot:
        print(to_dot(u), end="")
        return 0

    readings = None
    if args.readings:
        from .readings import drs_to_json, enumerate_readings, render_drs
        readings = enumerate_readings(u)

    if args.json:
        if readings is None:
            print(to_json_str(u), end="")
        else:
            doc = {"udrs": to_json(u),
                   "readings": [drs_to_json(d) for d in readings]}
            print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print(render_text(u), end="")
        if readings is not None:
            print(f"\n{len(readings)} reading(s)")
            for i, d in enumerate(readings, 1):
                print(f"\nreading {i}:")
                print(render_drs(d))
    return 0


class CorpusCase:
    def __init__(self, name: str, input: str = "",
                 disambiguate: Optional[list[str]] = None,
                 expect_readings: Optional[int] = None,
                 expect_udrs: Optional[str] = None, lineno: int = 0):
        self.name = name
        self.input = input
        self.disambiguate = [] if disambiguate is None else disambiguate
        self.expect_readings = expect_readings
        self.expect_udrs = expect_udrs
        self.lineno = lineno


def _read_corpus(path: str) -> list[CorpusCase]:
    cases: list[CorpusCase] = []
    current: Optional[CorpusCase] = None
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            current = None
            continue
        if ":" not in line:
            raise UDRSError(f"{path}:{lineno}: expected 'field: value'")
        key, value = (s.strip() for s in line.split(":", 1))
        if current is None:
            current = CorpusCase(name=f"case-{len(cases) + 1}", lineno=lineno)
            cases.append(current)
        if key == "case":
            current.name = value
        elif key == "input":
            current.input = value
        elif key == "disambiguate":
            current.disambiguate.extend(value.split())
        elif key == "expect-readings":
            try:
                current.expect_readings = int(value)
            except ValueError:
                raise UDRSError(f"{path}:{lineno}: expect-readings needs a "
                                f"count, got {value!r}") from None
        elif key == "expect-udrs":
            current.expect_udrs = value
        else:
            raise UDRSError(f"{path}:{lineno}: unknown field {key!r}")
    for case in cases:
        if not case.input:
            raise UDRSError(f"{path}:{case.lineno}: case {case.name!r} has no input")
    return cases


def run_corpus(path: str, lexicon: Optional[Lexicon] = None,
               rules: Optional[KnowledgeRules] = None, out=None) -> int:
    import json
    from .readings import count_readings
    from .serialize import to_json
    out = out if out is not None else sys.stdout
    base = os.path.dirname(os.path.abspath(path))
    failures = 0
    for case in _read_corpus(path):
        problems = []
        try:
            session, _ = build_directed_session(case.input, case.disambiguate,
                                                lexicon, rules)
            if case.expect_udrs is not None:
                expected = json.loads(read_text(os.path.join(base, case.expect_udrs)))
                got = to_json(session.udrs)
                if got != expected:
                    problems.append("udrs mismatch")
            if case.expect_readings is not None:
                n = count_readings(session.udrs)
                if n != case.expect_readings:
                    problems.append(f"readings: got {n}, "
                                    f"expected {case.expect_readings}")
        except UDRSError as e:
            problems.append(str(e))
        except json.JSONDecodeError as e:
            problems.append(f"expect-udrs {case.expect_udrs} is not JSON: {e}")
        except OSError as e:
            problems.append(f"expect-udrs {case.expect_udrs} cannot be read: {e.strerror}")
        if problems:
            failures += 1
            print(f"FAIL {case.name}: {'; '.join(problems)}", file=out)
        else:
            print(f"PASS {case.name}", file=out)
    return 1 if failures else 0


def cmd_corpus(args: argparse.Namespace) -> int:
    lexicon = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.default()
    rules = KnowledgeRules.from_file(args.rules) if args.rules else None
    return run_corpus(args.file, lexicon, rules)


@lru_cache(maxsize=1)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once: argparse's formatters and
    sections refer to each other, so each parser built is garbage for the
    cycle collector."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="udrs",
        description="Build underspecified discourse representations for a "
                    "small English fragment and enumerate their readings.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse text and print its UDRS")
    p.add_argument("text", nargs="?", help="sentence or discourse to analyze")
    p.add_argument("--json", action="store_true", help="print canonical JSON")
    p.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    p.add_argument("--readings", action="store_true",
                   help="enumerate fully scoped readings")
    p.add_argument("--trace-syntax", action="store_true",
                   help="print the derivation tree")
    p.add_argument("--trace-semantics", action="store_true",
                   help="print per-node constraint deltas")
    p.add_argument("--disambiguate", action="append", metavar="npK=READING",
                   help="force np<k> collective or distributive (repeatable)")
    p.add_argument("--rules", help="knowledge rules file")
    p.add_argument("--lexicon", help="vocabulary file (default: built-in fragment)")
    p.set_defaults(func=cmd_parse)

    c = sub.add_parser("corpus", help="run a golden regression corpus")
    c.add_argument("file", help="corpus file")
    c.add_argument("--rules", help="knowledge rules file")
    c.add_argument("--lexicon", help="vocabulary file")
    c.set_defaults(func=cmd_corpus)
    return ap


def run(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UDRSError, OSError) as e:  # unreadable input files
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
