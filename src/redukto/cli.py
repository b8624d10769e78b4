"""Command-line front end.

Exit codes are the machine contract: 0 accept/holds/equal, 1 reject or
violated or synthesis failure (with a counterexample printed), 2 resource
limit, divergence or running out of memory, 3 invalid input (parse errors,
bad words, bad usage).

Automaton and grammar arguments are file paths, or catalog entry names when
no such file exists.  Words are given either as whitespace-separated tokens
or as one unbroken string, which is tokenized by greedy longest match
against the automaton's alphabet.  Limits can be overridden per call with
--limits or globally through the REDUKTO_LIMITS environment variable, e.g.
"configs=1000000": the one limit, on the configurations a question expands.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .catalog import CatalogError, catalog_get, catalog_list
from .checks import (
    check_cycle_soundness,
    check_determinism,
    check_monotone,
    check_preservation,
    check_shrinking,
)
from .construct import SynthesisError, build_hrrwwc, to_shrinking
from .engine import (
    DEFAULT_LIMITS,
    Limits,
    OUT_ACCEPT,
    OUT_DIVERGES,
    OUT_INVALID,
    OUT_LIMIT,
    ResourcesExceeded,
    Trace,
    decide_basic_membership,
    decide_input_membership,
    run_deterministic,
    window_of,
)
from .fileformat import (
    ParseError,
    parse_automaton,
    parse_grammar,
    render_automaton,
    render_grammar,
)
from .languages import (
    LanguageQuery,
    compare_word_sets,
    decide_hproper_membership,
    enumerate_language,
    require_bound,
    words_over,
)
from .model import (
    FORMS,
    AutomatonSpec,
    LEFT_SENTINEL,
    PreconditionError,
    ReduktoError,
    SymbolError,
    classify_automaton,
    classify_rewrite,
    render_word,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3


class UsageFailure(ReduktoError):
    pass


# The two kinds of file or catalog argument, as messages name them.
_KINDS = {"automaton": "an automaton", "grammar": "a grammar"}


def _load(ref: str, kind: str = "automaton"):
    """The automaton or grammar that a file path, or else a catalog entry
    name, gives."""
    path = Path(ref)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        return parse_automaton(text) if kind == "automaton" else parse_grammar(text)
    try:
        entry = catalog_get(ref)
    except CatalogError:
        raise UsageFailure("no file or catalog entry named %r" % ref) from None
    if entry.kind != kind:
        raise UsageFailure("%r names %s, not %s" % (ref, _KINDS[entry.kind], _KINDS[kind]))
    return entry.spec if kind == "automaton" else entry.grammar


def tokenize_word(text: str, alphabet) -> tuple[str, ...]:
    """Tokens of a word argument: split on whitespace when present, else
    greedy longest match against the alphabet."""
    if text in ("", "-"):
        return ()
    if any(ch.isspace() for ch in text):
        tokens = tuple(text.split())
        for tok in tokens:
            if tok not in alphabet:
                raise UsageFailure("unknown symbol %r" % tok)
        return tokens
    by_length = sorted(alphabet, key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        for tok in by_length:
            if text.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            raise UsageFailure("cannot tokenize %r at position %d" % (text, i))
    return tuple(out)


def parse_limits(text: str | None) -> Limits:
    """The limits that ``text``, or else REDUKTO_LIMITS, sets as
    ``configs=N``; UsageFailure on any other or a repeated entry."""
    source = text if text is not None else os.environ.get("REDUKTO_LIMITS", "")
    configs = None
    for part in source.split(","):
        part = part.strip()
        if not part:
            continue
        key, equals, raw = part.partition("=")
        # str.isdigit also holds for superscripts and other scripts' digits.
        if key != "configs" or not equals or not (raw.isascii() and raw.isdigit()):
            raise UsageFailure("bad limits entry %r" % part)
        if configs is not None:
            raise UsageFailure("bad limits entry %r: configs is given twice" % part)
        configs = int(raw)
    return DEFAULT_LIMITS if configs is None else Limits(max_configs=configs)


def render_trace(spec: AutomatonSpec, trace: Trace) -> str:
    lines = []
    for config, ins in trace.steps:
        if ins.kind == "SL":
            shown = "SL %s %s" % (ins.state, render_word(ins.target))
        elif ins.kind in ("MVR", "MVL"):
            shown = "%s %s" % (ins.kind, ins.state)
        else:
            shown = ins.kind
        lines.append(
            "%s\t%d\t%s\t%s\t%s" % (
                config.state,
                config.pos,
                _show(window_of(spec, config)),
                shown,
                _show(config.tape),
            )
        )
    lines.append("outcome: %s%s" % (trace.outcome, " (%s)" % trace.flag if trace.flag else ""))
    return "\n".join(lines)


def _show(word) -> str:
    return render_word(tuple("^" if t == LEFT_SENTINEL else t for t in word))


def cmd_run(args) -> int:
    spec = _load(args.automaton)
    word = tokenize_word(args.word, spec.work_alphabet)
    limits = parse_limits(args.limits)
    if spec.flags.deterministic:
        trace = run_deterministic(spec, word, limits)
        if args.trace:
            print(render_trace(spec, trace))
        else:
            print("outcome: %s%s" % (trace.outcome, " (%s)" % trace.flag if trace.flag else ""))
        if trace.outcome in (OUT_DIVERGES, OUT_LIMIT, OUT_INVALID):
            return EXIT_RESOURCE
        return EXIT_OK if trace.outcome == OUT_ACCEPT else EXIT_FAIL
    print("note: nondeterministic automaton, deciding by search")
    decision = decide_basic_membership(spec, word, limits)
    if decision.verdict == "resource-exceeded":
        print("outcome: %s (%s)" % (OUT_LIMIT, decision.exceeded))
        return EXIT_RESOURCE
    if decision.is_member:
        if args.trace and decision.witness is not None:
            print(render_trace(spec, decision.witness))
        else:
            print("outcome: accept")
        return EXIT_OK
    print("outcome: reject")
    return EXIT_FAIL


def cmd_decide(args) -> int:
    spec = _load(args.automaton)
    limits = parse_limits(args.limits)
    word = tokenize_word(args.word, spec.work_alphabet)
    witness_word = None
    if args.kind == "input":
        decision = decide_input_membership(spec, word, limits)
    elif args.kind == "basic":
        decision = decide_basic_membership(spec, word, limits)
    else:
        decision, witness_word = decide_hproper_membership(spec, word, limits)
    if decision.verdict == "resource-exceeded":
        print("resource-exceeded: %s" % decision.exceeded)
        return EXIT_RESOURCE
    print(decision.verdict)
    if witness_word is not None:
        print("witness: %s" % render_word(witness_word))
    return EXIT_OK if decision.is_member else EXIT_FAIL


# The options that each check reads; a given option that it does not read
# is refused.  cpp holds by theorem without deciding a word, and so does ccp
# on a deterministic automaton.
_CHECK_READS = {
    "det": (), "forms": (), "cycle": ("max_len", "degree", "limits"),
    "mono": ("max_len", "limits"), "cpp": ("max_len",), "ccp": ("max_len", "limits"),
    "epp": ("max_len", "limits"), "shrink": ("max_len", "limits"),
}


def _refuse_unread(args, options, reads, command: str) -> None:
    """Raise UsageFailure on a given option that ``command`` would ignore."""
    for name in options:
        if getattr(args, name) is not None and name not in reads:
            raise UsageFailure("--%s does not apply to %s" % (name.replace("_", "-"), command))


def cmd_check(args) -> int:
    _refuse_unread(args, ("max_len", "degree", "limits"), _CHECK_READS[args.what],
                   "--what %s" % args.what)
    spec = _load(args.automaton)
    if args.what == "ccp" and spec.flags.deterministic:
        _refuse_unread(args, ("limits",), (), "--what ccp on a deterministic automaton")
    limits = parse_limits(args.limits)
    n = 8 if args.max_len is None else args.max_len
    if args.what == "det":
        report = check_determinism(spec)
    elif args.what == "mono":
        report = check_monotone(spec, n, limits)
    elif args.what == "forms":
        return _check_forms(spec)
    elif args.what == "cycle":
        report = check_cycle_soundness(spec, n, limits, degree=args.degree)
    elif args.what == "cpp":
        report = check_preservation(spec, n, "complete-correctness", limits)
    elif args.what == "ccp":
        report = check_preservation(spec, n, "cycle-correctness", limits)
    elif args.what == "epp":
        report = check_preservation(spec, n, "complete-error", limits)
    else:
        if spec.weights is None:
            raise UsageFailure("automaton %s carries no weight function" % spec.name)
        report = check_shrinking(spec, spec.weights, n, limits)
    print(report.describe())
    if report.verdict == "resource-exceeded":
        return EXIT_RESOURCE
    return EXIT_OK if report.holds else EXIT_FAIL


def _check_forms(spec: AutomatonSpec) -> int:
    for u, v in sorted(spec.sl_pairs()):
        print("%s -> %s : %s" % (render_word(u), render_word(v), classify_rewrite(u, v)))
    worst, declared = classify_automaton(spec).form, spec.flags.form
    print("strictest form: %s (declared %s)" % (worst, declared))
    return EXIT_OK if FORMS.index(worst) <= FORMS.index(declared) else EXIT_FAIL


def cmd_transform(args) -> int:
    if args.transformation == "gnf2hrrwwc":
        grammar = _load(args.source, "grammar")
        try:
            spec, report = build_hrrwwc(
                grammar, 3 if args.window is None else args.window,
                8 if args.window_cap is None else args.window_cap, parse_limits(args.limits))
        except SynthesisError as err:
            print("synthesis-failed")
            print(err.report.describe())
            return EXIT_FAIL
        Path(args.output).write_text(render_automaton(spec), encoding="utf-8")
        print(report.describe())
        print("wrote %s" % args.output)
        return EXIT_OK
    _refuse_unread(args, ("limits", "window", "window_cap"), (), "transform shrink")
    shrunk, weights = to_shrinking(_load(args.source))
    Path(args.output).write_text(render_automaton(shrunk), encoding="utf-8")
    print("weights: %s" % " ".join("%s=%d" % (t, weights[t]) for t in sorted(weights)))
    print("wrote %s" % args.output)
    return EXIT_OK


def cmd_enum(args) -> int:
    spec = _load(args.automaton)
    limits = parse_limits(args.limits)
    words = enumerate_language(spec, LanguageQuery(args.kind, args.max_len, limits))
    for word in words:
        print(render_word(word))
    return EXIT_OK


def _side_words(ref: str, kind: str, max_len: int, limits: Limits):
    if ref.startswith("oracle:"):
        entry = catalog_get(ref.split(":", 1)[1])
        if entry.oracle is None:
            raise UsageFailure("catalog entry %r has no oracle" % ref)
        return [w for w in words_over(entry.oracle_alphabet, max_len) if entry.oracle(w)]
    spec = _load(ref)
    return enumerate_language(spec, LanguageQuery(kind, max_len, limits))


def cmd_cmp(args) -> int:
    if args.left.startswith("oracle:") and args.right.startswith("oracle:"):
        _refuse_unread(args, ("limits",), (), "cmp between two oracles")
    limits = parse_limits(args.limits)
    require_bound(args.max_len)
    left = _side_words(args.left, args.left_kind, args.max_len, limits)
    right = _side_words(args.right, args.right_kind, args.max_len, limits)
    outcome = compare_word_sets(left, right, args.max_len)
    print(outcome.describe())
    return EXIT_OK if outcome.equal else EXIT_FAIL


def cmd_catalog(args) -> int:
    if args.export:
        entry = catalog_get(args.export)
        if entry.kind == "automaton":
            text = render_automaton(entry.spec)
        else:
            text = render_grammar(entry.grammar)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            print("wrote %s" % args.output)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    _refuse_unread(args, ("output",), (), "catalog without --export")
    for entry in catalog_list():
        if entry.kind == "automaton":
            tags = entry.spec.flags.label()
            extra = " window=%d" % entry.spec.window
            if entry.monotone is True:
                extra += " monotone"
            elif entry.monotone is False:
                extra += " non-monotone"
        else:
            tags = "grammar"
            extra = " rules=%d" % len(entry.grammar.rules)
        print("%-12s %-16s%s  %s" % (entry.name, tags, extra, entry.description))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, as the exit-code
    contract asks; argparse's own code 2 means a tripped limit here.  The
    subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redukto",
        description="Restarting-automaton workbench: run, decide, check, transform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limits(p):
        p.add_argument("--limits", help="configs=N", default=None)

    p = sub.add_parser("run", help="run a word on an automaton")
    p.add_argument("automaton")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true")
    add_limits(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("decide", help="decide language membership")
    p.add_argument("automaton")
    p.add_argument("word")
    p.add_argument("--kind", choices=("input", "basic", "hproper"), default="input")
    add_limits(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("check", help="run a bounded property verifier")
    p.add_argument("automaton")
    p.add_argument(
        "--what", required=True,
        choices=("det", "mono", "forms", "cycle", "cpp", "ccp", "epp", "shrink"),
    )
    p.add_argument("--max-len", type=int, default=None,
                   help="length bound of the bounded checks (default 8)")
    p.add_argument("--degree", type=int, default=None,
                   help="override the rewrite cap for --what cycle")
    add_limits(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="apply a construction")
    p.add_argument("transformation", choices=("gnf2hrrwwc", "shrink"))
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--window", type=int, default=None, help="window size (default 3)")
    p.add_argument("--window-cap", type=int, default=None, help="largest window tried (default 8)")
    add_limits(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("enum", help="enumerate a language up to a length bound")
    p.add_argument("automaton")
    p.add_argument("--kind", choices=("input", "basic", "proper", "hproper"), default="input")
    p.add_argument("--max-len", type=int, required=True)
    add_limits(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("cmp", help="compare two languages up to a length bound")
    p.add_argument("left")
    p.add_argument("left_kind", choices=("input", "basic", "proper", "hproper"))
    p.add_argument("right", help="automaton ref or oracle:NAME")
    p.add_argument("right_kind", choices=("input", "basic", "proper", "hproper"))
    p.add_argument("--max-len", type=int, required=True)
    add_limits(p)
    p.set_defaults(func=cmd_cmp)

    p = sub.add_parser("catalog", help="list or export the built-in entries")
    p.add_argument("--export", default=None, help="entry name to export")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourcesExceeded as err:
        print("resource-exceeded: %s" % err)
        return EXIT_RESOURCE
    except (UsageFailure, ParseError, CatalogError, PreconditionError, SymbolError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # Reported once the handler has let go of the traceback, whose
        # frames hold what filled the memory.  No named limit tripped, so
        # no resource-exceeded verdict is printed.
        pass
    print("error: out of memory before the configs limit tripped; lower --limits configs=N",
          file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
