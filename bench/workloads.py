"""The benchmark's workloads: seeded inputs, the calls into redukto that
answer them, and the correctness gate on every answer.

A workload makes its queries in passes.  Every pass has the same size
profile: each size is a fixed point of the stated range, moved down by up
to 1% by the seed, and the seed picks the content of the words.  Each range's
maximum is in every pass, so peak memory sees the same worst case on every
run, and the spread between seeds comes from the inputs' content, not from
which sizes were drawn.  The known answers come from ``oracles`` and from
facts stated with the catalog, never from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import os

import oracles as known
from oracles import CLOSE, OPEN
from redukto import cli
from redukto.catalog import catalog_get
from redukto.checks import (
    check_cycle_soundness,
    check_monotone,
    check_preservation,
    check_shrinking,
)
from redukto.construct import build_hrrwwc, to_shrinking
from redukto.engine import (
    Limits,
    decide_input_membership,
    replay_trace,
    run_deterministic,
)
from redukto.fileformat import parse_automaton, render_automaton
from redukto.languages import (
    LanguageQuery,
    compare_languages,
    compare_with_oracle,
    decide_hproper_membership,
    enumerate_basic_by_reduction,
    enumerate_language,
)


DECIDED = {"member": True, "non-member": False}
TRACE_ANSWERS = {"accept": True, "reject": False}

# Files the CLI lines read and write, inside the checkout.
WORK_DIR = os.path.join(".bench_out", "cli")


def near(rng, n: int) -> int:
    """n, moved down by up to 1%."""
    return n - rng.randrange(n // 100 + 1)


def random_word(rng, alphabet, n: int) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(n))


def random_dyck(rng, pairs: int) -> tuple:
    """A balanced bracket word with the given number of pairs."""
    while True:
        word = [OPEN] * pairs + [CLOSE] * pairs
        rng.shuffle(word)
        if known.balanced(word):
            return tuple(word)


def _as_text(word) -> str:
    return " ".join(word) if word else "-"


def _render(word) -> str:
    """The CLI's rendering of a word, restated for checking its output."""
    if not word:
        return "-"
    return "".join(word) if all(len(t) == 1 for t in word) else " ".join(word)


class LongWords:
    """Deterministic catalog automata on long words, each word asked through
    run_deterministic and through decide_input_membership."""

    name = "long-words"
    automata = ("dyck1", "m_e", "l_3", "lm_2", "reg_window1")
    oracles = {
        "dyck1": known.balanced,
        "m_e": known.power_of_two,
        "l_3": known.center(3),
        "lm_2": known.copies(2),
        "reg_window1": known.all_a,
    }

    def setup(self, layers):
        return {
            name: layers.call("catalog.catalog_get", catalog_get, name).spec
            for name in self.automata
        }

    def make_pass(self, rng):
        """Per shape a mid-range word, the range maximum and a near-miss."""
        words = []
        for n in (near(rng, 160), 320):
            words.append(("dyck1", (OPEN,) * n + (CLOSE,) * n))
        n = near(rng, 240)
        words.append(("dyck1", (OPEN,) * n + (CLOSE,) * (n - 1)))
        # Flat words go past the ~990 cycles at which the decider gives up.
        for n in (near(rng, 800), 1300):
            words.append(("dyck1", (OPEN, CLOSE) * n))
        i = near(rng, 300)
        words.append(("dyck1", (OPEN, CLOSE) * i + (CLOSE,) + (OPEN, CLOSE) * near(rng, 300)))
        words += [("m_e", ("a",) * 256), ("m_e", ("a",) * 512)]
        words.append(("m_e", ("a",) * (256 + rng.choice((-1, 1)))))
        for n in (near(rng, 150), 300):
            words.append(("l_3", ("a",) * n + ("c", "c") + ("b",) * n))
        n = near(rng, 200)
        words.append(("l_3", ("a",) * n + ("c", "c") + ("b",) * (n + rng.choice((-1, 1)))))
        for m in (near(rng, 50), 80):
            u = random_word(rng, "ab", m)
            words.append(("lm_2", u + ("c",) + u + ("c",) + u))
        u = list(random_word(rng, "ab", near(rng, 65)))
        copies = [u, list(u), list(u)]
        p = rng.randrange(len(u))
        flip = copies[rng.randrange(3)]
        flip[p] = "b" if flip[p] == "a" else "a"
        words.append(("lm_2", tuple(copies[0] + ["c"] + copies[1] + ["c"] + copies[2])))
        for n in (near(rng, 750), 1500):
            words.append(("reg_window1", ("a",) * n))
        n = near(rng, 500)
        words.append(("reg_window1", ("a",) * n + ("b",) + ("a",) * near(rng, 500)))
        return words

    def run(self, query, ctx, layers):
        name, word = query
        spec = ctx[name]
        expected = self.oracles[name](word)
        trace = layers.call("engine.run_deterministic", run_deterministic, spec, word)
        ran = TRACE_ANSWERS.get(trace.outcome)
        layers.judge("run %s |w|=%d" % (name, len(word)), ran, expected)
        memo: dict = {}
        decision = layers.call(
            "engine.decide", decide_input_membership, spec, word, memo=memo
        )
        decided = DECIDED.get(decision.verdict)
        layers.judge("decide %s |w|=%d" % (name, len(word)), decided, expected)
        if None not in (ran, decided) and ran != decided:
            layers.mistake("run and decide disagree on %s |w|=%d" % (name, len(word)))


class BranchingSearch:
    """Nondeterministic search on short words: input membership of the
    shrunk automata against h-proper membership of their sources."""

    name = "branching-search"
    # A configuration limit well under the default, so that the h-proper
    # decider's summed exploration passes it on random bracket words of
    # length 10 (about 1 s per query) rather than only at length 12 (7 s).
    limits = Limits(max_configs=100_000)
    oracles = {
        "m_e_h": known.a_plus,
        "anbn": known.anbn,
        "dyck": known.balanced_nonempty,
    }

    def setup(self, layers):
        m_e_h = layers.call("catalog.catalog_get", catalog_get, "m_e_h").spec
        anbn_g = layers.call("catalog.catalog_get", catalog_get, "anbn_gnf").grammar
        dyck_g = layers.call("catalog.catalog_get", catalog_get, "dyck_gnf").grammar
        anbn, _ = layers.call("construct.build_hrrwwc", build_hrrwwc, anbn_g, 3)
        dyck, _ = layers.call("construct.build_hrrwwc", build_hrrwwc, dyck_g, 3)
        m_e_h_s, _ = layers.call("construct.to_shrinking", to_shrinking, m_e_h)
        anbn_s, _ = layers.call("construct.to_shrinking", to_shrinking, anbn)
        return {"m_e_h": (m_e_h, m_e_h_s), "anbn": (anbn, anbn_s), "dyck": (dyck, None)}

    def make_pass(self, rng):
        # Deterministic words of a few milliseconds around the median.
        words = [("m_e_h", ("a",) * n) for n in (0, 3, 6, 9, 12, 18, 20, 22, 24)]
        words += [("anbn", ("a",) * n + ("b",) * n) for n in (2, 4, 6)]
        words.append(("anbn", ("a",) * 4 + ("b",) * 4 + ("a",)))
        words.append(("anbn", ("a",) * 5 + ("b",) * 4))
        # Seeded words slower than the median, so that it falls among the
        # deterministic ones.
        words += [("anbn", random_word(rng, "ab", 9)) for _ in range(2)]
        words += [("dyck", random_dyck(rng, 5)) for _ in range(2)]
        # The slowest sixth of the verdicts, so that the 90th percentile
        # falls inside one group of queries of one kind and size.
        words += [("dyck", random_word(rng, (OPEN, CLOSE), 10)) for _ in range(6)]
        return words

    def run(self, query, ctx, layers):
        lang, word = query
        source, shrunk = ctx[lang]
        expected = self.oracles[lang](word)
        via_input = None
        if shrunk is not None:
            memo: dict = {}
            decision = layers.call(
                "engine.decide", decide_input_membership, shrunk, word,
                limits=self.limits, memo=memo,
            )
            via_input = DECIDED.get(decision.verdict)
            layers.judge("shrunk %s input %s" % (lang, _as_text(word)), via_input, expected)
        decision, preimage = layers.call(
            "languages.decide_hproper", decide_hproper_membership, source, word,
            limits=self.limits, memo={},
        )
        via_hproper = DECIDED.get(decision.verdict)
        layers.judge("%s h-proper %s" % (lang, _as_text(word)), via_hproper, expected)
        if via_hproper:
            if tuple(source.morphism[t] for t in preimage) != tuple(word):
                layers.mistake("%s preimage %s does not map to the word" % (lang, _as_text(preimage)))
            if not replay_trace(source, decision.witness):
                layers.mistake("%s h-proper witness does not replay" % lang)
        if None not in (via_input, via_hproper) and via_input != via_hproper:
            layers.mistake("shrunk input and h-proper disagree on %s %s" % (lang, _as_text(word)))


def _preimage_weights(spec) -> dict:
    """Weights to_shrinking must give: for an input symbol, one more than the
    number of working symbols mapped onto it; one for every other symbol."""
    weights = {tok: 1 for tok in spec.work_alphabet}
    for tok in spec.input_alphabet:
        weights[tok] = 1 + sum(1 for image in spec.morphism.values() if image == tok)
    return weights


class GrammarPipeline:
    """The grammar -> verify -> enumerate flow, then the README's CLI lines."""

    name = "grammar-pipeline"
    catalog = ("m_e", "m_e_h", "dyck1", "l_3", "lm_2", "lm_3", "reg_window1")
    grammars = {"anbn": "anbn_gnf", "dyck": "dyck_gnf"}
    languages = {"anbn": (known.anbn, ("a", "b")), "dyck": (known.balanced_nonempty, (OPEN, CLOSE))}
    brute = {
        "dyck1": known.balanced,
        "m_e": known.power_of_two,
        "l_3": known.center(3),
        "reg_window1": known.all_a,
        "lm_2": known.copies(2),
    }
    # (automaton, bound, known verdict): m_e is the stock non-monotone
    # machine; the deleters and the grammar-built scanners are monotone.
    monotone = (
        ("anbn3", 9, "holds-up-to-bound"),
        ("anbn4", 7, "holds-up-to-bound"),
        ("dyck3", 8, "holds-up-to-bound"),
        ("m_e", 8, "violated"),
        ("dyck1", 12, "holds-up-to-bound"),
        ("l_3", 12, "holds-up-to-bound"),
        ("reg_window1", 12, "holds-up-to-bound"),
    )

    def setup(self, layers):
        os.makedirs(WORK_DIR, exist_ok=True)
        ctx = {
            name: layers.call("catalog.catalog_get", catalog_get, name).spec
            for name in self.catalog
        }
        for key, name in self.grammars.items():
            ctx[key + "_g"] = layers.call("catalog.catalog_get", catalog_get, name).grammar
        return ctx

    def readme_lines(self):
        """The README's CLI lines, and a decision on the automaton file the
        shrink line writes, with the exit codes the README promises."""
        d = WORK_DIR
        return [
            (("catalog",), 0, None),
            (("catalog", "--export", "m_e", "-o", d + "/m_e.rlww"), 0, None),
            (("run", "m_e", "aaaa", "--trace"), 0, None),
            (("decide", "m_e", "b", "--kind", "basic"), 0, None),
            (("check", "dyck1", "--what", "mono", "--max-len", "10"), 0, None),
            (("check", "lm_1", "--what", "cycle", "--max-len", "10", "--degree", "1"), 1, None),
            (("enum", "m_e", "--kind", "input", "--max-len", "9"), 0, ("power_of_two", ("a",), 9)),
            (("catalog", "--export", "anbn_gnf", "-o", d + "/anbn.g"), 0, None),
            (("transform", "gnf2hrrwwc", d + "/anbn.g", "--window", "3", "-o", d + "/anbn.rlww"), 0, None),
            (("transform", "shrink", "m_e_h", "-o", d + "/shrunk.rlww"), 0, None),
            (("cmp", d + "/anbn.rlww", "hproper", "oracle:anbn_gnf", "hproper", "--max-len", "12"), 0, None),
            (("decide", d + "/shrunk.rlww", "aaa"), 0, None),
            # Running out of configurations is exit 2 under the README contract.
            (("enum", "m_e", "--kind", "input", "--max-len", "40", "--limits", "configs=50"), 2, None),
        ]

    def seeded_lines(self, rng):
        """CLI lines on seeded words; the exit code follows the oracle."""
        lines = []
        for _ in range(3):
            n = rng.randrange(1, 65)
            lines.append((("run", "m_e", "a" * n), 1 - known.power_of_two(("a",) * n), None))
        for _ in range(3):
            w = random_dyck(rng, rng.randrange(1, 7)) if rng.random() < 0.5 else \
                random_word(rng, (OPEN, CLOSE), rng.randrange(1, 13))
            lines.append((("decide", "dyck1", _as_text(w)), 1 - known.balanced(w), None))
        for _ in range(2):
            w = ("a",) * rng.randrange(0, 13) + ("c", "c") + ("b",) * rng.randrange(0, 13)
            lines.append((("decide", "l_3", "".join(w)), 1 - known.center(3)(w), None))
        for _ in range(2):
            n = rng.randrange(1, 17)
            lines.append((("decide", "m_e_h", "a" * n, "--kind", "hproper"), 0, None))
        k, bound = rng.randrange(2, 5), rng.randrange(8, 12)
        lines.append((("check", "l_%d" % k, "--what", "mono", "--max-len", str(bound)), 0, None))
        bound = rng.randrange(4, 9)
        lines.append((("enum", "dyck1", "--kind", "input", "--max-len", str(bound)), 0,
                      ("balanced", (OPEN, CLOSE), bound)))
        return lines

    def make_pass(self, rng):
        steps = [
            ("build", "anbn", 3), ("build", "anbn", 4), ("build", "dyck", 3),
            ("shrink", "anbn3"), ("shrink", "anbn4"), ("shrink", "dyck3"),
        ]
        steps += [("monotone",) + item for item in self.monotone]
        steps += [
            ("cycle", "lm_2", 9, None, "holds-up-to-bound"),
            ("cycle", "lm_2", 9, 2, "violated"),
        ]
        for mode in ("complete-correctness", "complete-error", "cycle-correctness", "cycle-error"):
            steps.append(("preservation", "dyck1", 8, mode))
        for mode in ("cycle-correctness", "cycle-error"):
            steps.append(("preservation", "lm_2", 8, mode))
        steps.append(("shrinking", "anbn3", 5))
        steps += [("hproper", "anbn3", 12), ("hproper", "dyck3", 12)]
        steps += [("closure", "lm_2", 22), ("closure", "lm_3", 20)]
        steps += [("brute", name, {"lm_2": 7, "l_3": 8}.get(name, 9)) for name in self.brute]
        steps += [("compare", "anbn3", "anbn4", 12), ("compare_oracle", "dyck3", 10)]
        steps += [("round_trip", key) for key in ("anbn3", "anbn4", "dyck3", "anbn3_s", "anbn4_s", "dyck3_s")]
        steps += [("cli",) + line for line in self.readme_lines() + self.seeded_lines(rng)]
        return steps

    def run(self, query, ctx, layers):
        getattr(self, "_" + query[0])(ctx, layers, *query[1:])

    def _build(self, ctx, layers, lang, k):
        spec, report = layers.call("construct.build_hrrwwc", build_hrrwwc, ctx[lang + "_g"], k)
        layers.judge("build %s k=%d" % (lang, k), report.verdict, "validated")
        ctx["%s%d" % (lang, k)] = spec

    def _shrink(self, ctx, layers, key):
        source = ctx[key]
        spec, weights = layers.call("construct.to_shrinking", to_shrinking, source)
        ctx[key + "_s"] = spec
        expected = _preimage_weights(source)
        expected.update({t + "^": 1 for t in source.input_alphabet})
        layers.judge("shrink %s weights" % key, weights, expected)

    def _monotone(self, ctx, layers, key, bound, verdict):
        spec = ctx[key]
        report = layers.call("checks.check_monotone", check_monotone, spec, bound)
        self._check_report(layers, "monotone %s %d" % (key, bound), spec, report, verdict)

    def _cycle(self, ctx, layers, key, bound, degree, verdict):
        spec = ctx[key]
        report = layers.call(
            "checks.check_cycle_soundness", check_cycle_soundness, spec, bound, degree=degree
        )
        self._check_report(layers, "cycle %s %d j=%s" % (key, bound, degree), spec, report, verdict)

    def _preservation(self, ctx, layers, key, bound, mode):
        spec = ctx[key]
        report = layers.call("checks.check_preservation", check_preservation, spec, bound, mode)
        self._check_report(layers, "%s %s %d" % (mode, key, bound), spec, report, "holds-up-to-bound")

    def _shrinking(self, ctx, layers, key, bound):
        source, spec = ctx[key], ctx[key + "_s"]
        weights = _preimage_weights(source)
        weights.update({t + "^": 1 for t in source.input_alphabet})
        report = layers.call("checks.check_shrinking", check_shrinking, spec, weights, bound)
        self._check_report(layers, "shrinking %s %d" % (key, bound), spec, report, "holds-up-to-bound")

    def _check_report(self, layers, what, spec, report, verdict):
        if report.verdict == "resource-exceeded":
            layers.fail()
            return
        layers.judge(what, report.verdict, verdict)
        ce = report.counterexample
        if report.verdict == "violated" and (ce is None or ce.trace is None or not replay_trace(spec, ce.trace)):
            layers.mistake("%s: counterexample does not replay" % what)

    def _hproper(self, ctx, layers, key, bound):
        oracle, alphabet = self.languages[key.rstrip("0123456789")]
        words = layers.call(
            "languages.enumerate.closure", enumerate_language, ctx[key],
            LanguageQuery("hproper", bound), strategy="closure",
        )
        layers.judge("h-proper %s up to %d" % (key, bound), words, known.members(oracle, alphabet, bound))

    def _closure(self, ctx, layers, key, bound):
        j = int(key[-1])
        words = layers.call(
            "languages.enumerate.closure", enumerate_basic_by_reduction, ctx[key], bound,
            seed_len=j + 2,
        )
        layers.judge("closure %s up to %d" % (key, bound), words, known.copies_members(j, bound))

    def _brute(self, ctx, layers, key, bound):
        spec = ctx[key]
        words = layers.call(
            "languages.enumerate.brute", enumerate_language, spec,
            LanguageQuery("input", bound), strategy="brute",
        )
        expected = known.members(self.brute[key], spec.input_alphabet, bound)
        layers.judge("brute %s up to %d" % (key, bound), words, expected)

    def _compare(self, ctx, layers, left, right, bound):
        query = LanguageQuery("hproper", bound)
        outcome = layers.call("languages.compare", compare_languages, ctx[left], query, ctx[right], query)
        layers.judge("compare %s %s up to %d" % (left, right, bound), outcome.equal, True)

    def _compare_oracle(self, ctx, layers, key, bound):
        oracle, alphabet = self.languages[key.rstrip("0123456789")]
        outcome = layers.call(
            "languages.compare", compare_with_oracle, ctx[key],
            LanguageQuery("hproper", bound), oracle, alphabet,
        )
        layers.judge("compare %s with its oracle up to %d" % (key, bound), outcome.equal, True)

    def _round_trip(self, ctx, layers, key):
        text = render_automaton(ctx[key])
        again = layers.call("fileformat.round_trip", lambda: render_automaton(parse_automaton(text)))
        layers.judge("round trip %s" % key, again == text, True)

    def _cli(self, ctx, layers, argv, expected, listing):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = layers.call("cli.main", cli.main, list(argv))
        what = "redukto " + " ".join(argv)
        if code != expected:
            if {code, expected} <= {0, 1}:
                layers.mistake("%s: exit %d, known answer %d" % (what, code, expected))
            else:
                # A code outside the README's 0/1/2/3 meaning for this
                # outcome breaks the contract: a failure, not a verdict.
                layers.count("cli.main", "exit_mismatch")
                layers.fail()
            return
        if listing is not None:
            oracle, alphabet, bound = listing
            want = [_render(w) for w in known.members(getattr(known, oracle), alphabet, bound)]
            layers.judge(what, out.getvalue().splitlines(), want)


WORKLOADS = {w.name: w for w in (LongWords(), BranchingSearch(), GrammarPipeline())}
