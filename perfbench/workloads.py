"""The four workloads: seeded items, each one verdict with a known answer.

Every item's known answer comes from outside the code under test:
hand-written Church numerals and arithmetic, the expected ok/error of each
encode request, the admissibility verdicts of acceptance criterion 8, the
types the well-typed generator builds by construction, and the round-trip
and subject-reduction properties.

The seed picks the concrete inputs; the mix of item kinds and their size
strata is fixed, so runs with different seeds do the same amount of work
at the stated mix.  Items whose true answer the program gets wrong are
kept at their true answers in each workload's known-defect probe, which
runs once per run outside the timed loop.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from pilly import cli, functor, parser, pretty, relations as RL, rewrite as R
from pilly import syntax as S, typecheck as T
from pilly import encodings as E

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "src" / "pilly" / "catalog"

SOLVED, UNKNOWN, FAILED = "solved", "unknown", "failed"


@dataclass
class Item:
    """`call` sends the query and returns the program's answer; `judge`
    compares it with the known answer and returns (status, detail)."""
    name: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[str, str]]


@dataclass
class Workload:
    name: str
    seed: int
    items: list[Item]
    probe: list[Item] = field(default_factory=list)

    def mix(self) -> str:
        kinds = Counter(i.name.split(":", 1)[0] for i in self.items)
        return ", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's items; `tiny` shrinks sizes for the smoke test."""
    rng = random.Random(f"{name}/{seed}")
    items, probe = _BUILDERS[name](rng, tiny)
    rng.shuffle(items)
    return Workload(name, seed, items, probe)


def run_item(item: Item) -> tuple[str, str]:
    """Send one item; an uncaught exception is a failure."""
    try:
        observed = item.call()
    except Exception as e:  # the benchmark reports it and keeps running
        return FAILED, f"uncaught {type(e).__name__}: {str(e)[:120]}"
    return item.judge(observed)


def _eq_verdict(got, want) -> tuple[str, str]:
    """Three-valued equality against a known answer: Unknown is undecided."""
    if isinstance(got, R.Unknown):
        return UNKNOWN, f"Unknown({got.reason})"
    if isinstance(got, want):
        return SOLVED, ""
    return FAILED, f"true answer {want.__name__}, got {type(got).__name__}"


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# check-catalog: in-process `pilly check` over seeded subsets of the catalog

# Each pass checks every file alone, the whole catalog through the
# no-argument form, the heaviest file paired with the lightest and so on
# down the sizes, and the two halves of the size order.  The multi-file
# items take cmd_check's thread-pool path.  The groups are fixed, so every
# seed does the same work; the seed orders each item's files, which is the
# order the pool takes them in, and the items in a pass.
NO_ARGUMENT_ITEMS = 3
_ENTRY = re.compile(
    r"^(?:(?:type|term|rel)\s|#(?:check|normalize|equal|admissible|schema)\b)",
    re.M)


def _check_item(files: list[Path], expected: dict[str, int]) -> Item:
    names = [f.name for f in files] or sorted(expected)
    want = sum(expected[n] for n in names)

    def call():
        return _quiet_cli(["check", *map(str, files)])

    def judge(observed):
        rc, out = observed
        lines = out.splitlines()
        bad = [ln for ln in lines if not ln.startswith("[ok]")]
        if rc != 0 or bad:
            return FAILED, f"exit {rc}: {(bad or ['?'])[0][:120]}"
        missing = [n for n in names if n not in out]
        if len(lines) != want or missing:
            return FAILED, f"{len(lines)} entries, want {want}; " \
                f"missing {missing}"
        return SOLVED, ""

    label = "+".join(f.stem for f in files) if files else "no-argument"
    kind = "check-one" if len(files) == 1 else \
        "check-all" if not files else "check-many"
    return Item(f"{kind}:{label}", call, judge)


def _check_catalog(rng: random.Random, tiny: bool):
    files = sorted(CATALOG.glob("*.pilly"))
    expected = {f.name: len(_ENTRY.findall(f.read_text())) for f in files}
    if tiny:
        small = [f for f in files if f.stem in ("unit", "tensor", "exists")]
        return [_check_item([f], expected) for f in small] + \
            [_check_item(small, expected)], []
    by_size = sorted(files, key=lambda f: f.stat().st_size, reverse=True)
    n = len(by_size)
    groups = [[f] for f in files] + [[] for _ in range(NO_ARGUMENT_ITEMS)]
    groups += [[by_size[i], by_size[n - 1 - i]] for i in range(n // 2)]
    groups += [by_size[0::2], by_size[1::2]]
    return [_check_item(rng.sample(g, len(g)), expected) for g in groups], []


# ---------------------------------------------------------------------------
# encode-verify: in-process `pilly encode KIND TYPES` and functor laws

# Every encodings.catalog() instance in CLI sugar; {void} is 0 or 1 and
# {p} a parameter name, both picked by the seed.
ACCEPTED = [
    ("unit",), ("zero",), ("one",), ("nat",), ("iso-self", "I"),
    ("iso-self", "N"), ("tensor", "N", "I"), ("sum", "N", "I"),
    ("product", "N", "I"), ("exists", "a * N"), ("mu", "{void} + a"),
    ("nu", "N * a"), ("rec", "{void} + (N * a)"), ("rec", "a -o a"),
    ("rec-params", "{p} * a"),
]
REJECTED = [
    (("mu", "a -o a"), "must occur only positively"),
    (("nu", "a -o a"), "must occur only positively"),
    (("rec-params", "{p} -o {p} * a"), "mixed variance"),
]
# acceptance criterion 6: both laws hold, and the identity law is Equal
FUNCTOR_TYPES = ["b", "!b", "b * b", "a -o b", "all {g}. b * {g}"]
TINY_ACCEPTED = [("unit",), ("nat",), ("sum", "N", "I")]


def _encode_item(argv: list[str], reject: str | None) -> Item:
    def call():
        return _quiet_cli(["encode", *argv])

    def judge(observed):
        rc, out = observed
        if reject is None:
            if rc == 0 and out.startswith("[ok] encode"):
                return SOLVED, ""
            return FAILED, f"true answer ok, got exit {rc}: {out[:120]}"
        if rc == 1 and out.startswith("[FAIL] encode") and reject in out:
            return SOLVED, ""
        return FAILED, f"true answer rejected ({reject}), got exit {rc}: " \
            f"{out[:120]}"

    kind = "encode" if reject is None else "encode-rejected"
    return Item(f"{kind}:{' '.join(argv)}", call, judge)


def _functor_item(src: str) -> Item:
    def call():
        return functor.check_functor_laws(parser.parse_type(src), "a", "b")

    def judge(laws):
        ident, comp = laws
        status, detail = _eq_verdict(ident, R.Equal)
        if status != SOLVED:
            return (FAILED if status == FAILED else UNKNOWN), \
                f"identity law: {detail}"
        status, detail = _eq_verdict(comp, R.Equal)
        return status, detail and f"composition law: {detail}"

    return Item(f"functor-laws:{src}", call, judge)


def _encode_verify(rng: random.Random, tiny: bool):
    spell = {"void": rng.choice("01"),
             "p": rng.choice(["b1", "c", "p", "q2"]),
             "g": rng.choice(["g", "h", "c"])}
    items = [_encode_item([a.format(**spell) for a in req], None)
             for req in (TINY_ACCEPTED if tiny else ACCEPTED)]
    items += [_encode_item([a.format(**spell) for a in req], why)
              for req, why in REJECTED]
    items += [_functor_item(src.format(**spell))
              for src in FUNCTOR_TYPES[:2 if tiny else None]]
    return items, []


# ---------------------------------------------------------------------------
# rewrite-deep: public-API rewriter queries whose cost grows with size

# Sizes are fixed, so every seed does the same rewriting and the median
# and p90 items stay the same; the seed picks the binder names of the
# hand-written numerals, how each sum is split, the distinct numeral's
# neighbour, the unroll budgets and the item order.
NUMERAL_K = (12, 24, 36, 48, 60)
ADD_TOTAL = (16, 28, 40)
DISTINCT_K = (10, 20, 30)
Y_WRAPS = (8, 16, 24)
TINY = {"numeral": (3,), "add": (6,), "distinct": (3,), "y": (2,)}

_EMPTY = S.TermContext()
# f : !I -o I, so Y [I] !f unrolls to f !(Y [I] !f)
_Y_CTX = S.TermContext(gamma={"f": S.Lolli(S.Bang(S.Unit()), S.Unit())})


def church_source(k: int, rng: random.Random) -> str:
    """A Church numeral written out by hand, with seeded binder names."""
    a = rng.choice(["a", "b", "t"])
    f1, f, x = rng.choice([("f1", "f", "x"), ("s", "g", "z"),
                           ("h1", "h", "y")])
    body = x
    for _ in range(k):
        body = f"{f} ({body})" if " " in body else f"{f} {body}"
    return (f"/\\{a}. fn {f1}:!({a} -o {a}). "
            f"let !{f} : {a} -o {a} = {f1} in fn {x}:{a}. {body}")


def _numeral_item(k: int, rng: random.Random) -> Item:
    term = E.numeral(k)
    want = parser.parse_term(church_source(k, rng))

    def judge(nf):
        if nf == want:
            return SOLVED, ""
        return FAILED, "normal form differs from the hand-written numeral"

    return Item(f"numeral-nf:k={k}", lambda: R.normalize(term), judge)


def _equal_item(name: str, lhs, rhs, want, cfg=None, ctx=_EMPTY) -> Item:
    cfg = cfg or R.RewriteConfig()
    return Item(name, lambda: R.equal(lhs, rhs, cfg, ctx=ctx),
                lambda got: _eq_verdict(got, want))


def _add_item(total: int, rng: random.Random) -> Item:
    m = total // 2 + rng.randint(0, 1)
    n = total - m
    nat = E.encode_nat().combinators
    # iter [N] n !succ m
    lhs = S.app(S.TyApp(nat["iter"][0], E.nat_type()), E.numeral(n),
                S.BangIntro(nat["succ"][0]), E.numeral(m))
    rhs = parser.parse_term(church_source(total, rng))
    return _equal_item(f"add:{m}+{n}", lhs, rhs, R.Equal)


def _distinct_item(k: int, rng: random.Random) -> Item:
    other = k + rng.choice([-1, 1])
    rhs = parser.parse_term(church_source(other, rng))
    return _equal_item(f"distinct:{k}vs{other}", E.numeral(k), rhs,
                       R.NotEqual)


def _y_items(k: int, rng: random.Random) -> list[Item]:
    f = S.Var("f")
    lhs = S.App(S.TyApp(S.Y(), S.Unit()), S.BangIntro(f))
    rhs = lhs
    for _ in range(k):
        rhs = S.App(f, S.BangIntro(rhs))
    enough = k + rng.randint(0, 2)
    short = max(0, k - rng.randint(1, 2))
    return [_equal_item(f"y-unroll:wraps={k},budget={b}", lhs, rhs,
                        R.Equal, R.RewriteConfig(y_unroll=b), _Y_CTX)
            for b in (enough, short)]


# ROADMAP item 4: provably equal pairs the seed answers NotEqual.
ITEM4_REPROS = [
    ("let-under-lam", "fn u:I. let <> = u in (fn y:I. y)",
     "fn u:I. fn x:I. let <> = u in x", {}),
    ("let-blocks-eta", "fn x:I. let <> = u in f x", "let <> = u in f",
     {"u": S.Unit(), "f": S.Lolli(S.Unit(), S.Unit())}),
    ("let-under-tylam", "/\\a. let <> = u in (/\\b. fn z:b. z) [a]",
     "let <> = u in /\\b. fn z:b. z", {"u": S.Unit()}),
]


def _rewrite_deep(rng: random.Random, tiny: bool):
    sizes = TINY if tiny else {"numeral": NUMERAL_K, "add": ADD_TOTAL,
                               "distinct": DISTINCT_K, "y": Y_WRAPS}
    items = [_numeral_item(k, rng) for k in sizes["numeral"]]
    items += [_add_item(k, rng) for k in sizes["add"]]
    items += [_distinct_item(k, rng) for k in sizes["distinct"]]
    for k in sizes["y"]:
        items += _y_items(k, rng)
    probe = [_equal_item(f"item4:{name}", parser.parse_term(a),
                         parser.parse_term(b), R.Equal,
                         ctx=S.TermContext(gamma=gamma))
             for name, a, b, gamma in ITEM4_REPROS]
    return items, probe


# ---------------------------------------------------------------------------
# small-terms: per-call overhead on small seeded inputs

# Well-typed terms are drawn until each node-count stratum has its quota;
# the quotas follow the generator's own size distribution at depth 5, so
# every seed gives the same size mix.
TYPED_QUOTAS = {(1, 10): 12, (10, 25): 20, (25, 50): 40, (50, 100): 36,
                (100, 200): 12}
TERM_DEPTH = 5
IE_TYPES = 12
IE_DEPTH = 2
PAREN_DEPTHS = ((201, 300), (301, 400), (401, 500), (501, 600))


def _conftest():
    """The seeded generators of tests/conftest.py, imported read-only."""
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_pilly_test_gen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _typed_item(i: int, ctx, term, ty) -> Item:
    """infer, print, parse back, normalize, re-infer, and equal(t, nf)."""

    def call():
        got = T.infer_type(ctx, term).ty
        back = parser.parse_term(pretty.pp(term))
        try:
            nf = R.normalize(term)
        except R.FuelExhausted:
            return got, back, None, None
        return got, back, T.infer_type(ctx, nf).ty, R.equal(term, nf,
                                                            ctx=ctx)

    def judge(observed):
        got, back, nf_ty, eq = observed
        if got != ty:
            return FAILED, "inferred type differs from the generated one"
        if back != term:
            return FAILED, "print/parse round trip changed the term"
        if nf_ty is None:
            return UNKNOWN, "fuel exhausted"
        if nf_ty != ty:
            return FAILED, "normal form has another type"
        return _eq_verdict(eq, R.Equal)

    return Item(f"typed-term:{i}", call, judge)


def _admissibility_cases():
    """Acceptance criterion 8: 30 derivable and 5 not derivable."""
    s, t = S.TyVar("s"), S.TyVar("t")
    Fl, U = S.Flavor, S.Unit()
    theta = S.RelContext(entries={
        "R": (s, t, Fl.REL), "R2": (s, s, Fl.REL), "Sa": (s, t, Fl.ADMREL),
        "Sb": (t, t, Fl.ADMREL), "Sc": (s, s, Fl.ADMREL)})
    raw = S.RelVar("R", s, t, Fl.REL)
    adm = S.RelVar("Sa", s, t, Fl.ADMREL)
    adm2 = S.RelVar("Sb", t, t, Fl.ADMREL)
    adm3 = S.RelVar("Sc", s, s, Fl.ADMREL)
    ids = parser.parse_term("fn x:s. x")
    idt = parser.parse_term("fn y:t. y")
    ty = parser.parse_type
    positive = [
        RL.eq_rel(U), RL.eq_rel(s), RL.eq_rel(ty("s -o t")),
        RL.graph_rel(ids, s, s),
        RL.graph_rel(parser.parse_term("fn x:I. x"), U, U), adm, adm2,
        RL.reindex(adm, ids, idt, s, t), RL.reindex(RL.eq_rel(s), ids, ids,
                                                    s, s),
        RL.reindex(adm2, idt, idt, t, t), RL.lolli_rel(raw, adm),
        RL.lolli_rel(adm, adm), RL.lolli_rel(RL.eq_rel(s), adm),
        RL.lolli_rel(raw, RL.eq_rel(t)), RL.arrow_rel(raw, adm),
        RL.arrow_rel(RL.eq_rel(s), adm), RL.tensor_rel(raw, raw),
        RL.tensor_rel(raw, adm), RL.tensor_rel(adm, adm),
        RL.tensor_rel(RL.eq_rel(s), raw), RL.bang_rel(raw),
        RL.bang_rel(adm), RL.bang_rel(RL.eq_rel(s)), RL.unit_rel(),
        RL.type_rel_interp(ty("all b. b"), []),
        RL.type_rel_interp(ty("all b. b -o b"), []),
        RL.type_rel_interp(ty("s -o s"), [adm3]), RL.closure_phi(raw),
        RL.closure_phi(adm), RL.closure_phi(RL.unit_rel()),
    ]
    negative = [
        raw, RL.lolli_rel(adm, raw), RL.arrow_rel(adm, raw),
        S.compr("x", s, "y", t,
                S.Or(S.Top(), S.RelApp(adm, S.Var("x"), S.Var("y")))),
        S.compr("x", s, "y", t, S.exists_tm_p(
            "z", U, S.RelApp(adm, S.Var("x"), S.Var("y")))),
    ]
    return theta, [(r, True) for r in positive] + \
        [(r, False) for r in negative]


def _admissible_item(i: int, theta, rel, derivable: bool) -> Item:
    judgement = RL.RelJudgement(("s", "t"), {}, theta, rel)

    def judge(deriv):
        if (deriv is not None) == derivable:
            return SOLVED, ""
        want = "derivable" if derivable else "NotDerivable"
        return FAILED, f"true answer {want}"

    kind = "admissible" if derivable else "not-admissible"
    return Item(f"{kind}:{i}", lambda: RL.derive_admissible(judgement),
                judge)


def _schema_item(name: str, make) -> Item:
    """A generated schema instance must be a well-formed proposition."""

    def call():
        prop = make()
        RL.check_prop((), {}, S.RelContext(), prop)
        return prop

    return Item(name, call, lambda prop: (SOLVED, ""))


def _paren_item(depth: int) -> Item:
    src = "(" * depth + "x" + ")" * depth

    def call():
        try:
            return parser.parse_term(src)
        except parser.ParseError as e:
            return e

    def judge(out):
        # the true answer is the variable, or an error with a location
        if out == S.Var("x"):
            return SOLVED, ""
        if isinstance(out, parser.ParseError) and out.span is not None:
            return SOLVED, f"located error: {out}"
        return FAILED, f"true answer Var('x') or a located error, got {out!r}"

    return Item(f"deep-parens:{depth}", call, judge)


def _lrl_terms() -> dict[str, S.Term]:
    """Acceptance criterion 9's closed terms."""
    nat = E.encode_nat().combinators
    unit = E.encode_unit().combinators
    return {"Y": S.Y(), "poly_id": S.poly_id(), "zero": nat["zero"][0],
            "succ": nat["succ"][0], "iter": nat["iter"][0],
            "unit_fwd": unit["fwd"][0], "unit_bwd": unit["bwd"][0]}


def _small_terms(rng: random.Random, tiny: bool):
    from tracer import node_count
    gen = _conftest()
    quotas = {(1, 10): 2, (10, 25): 2} if tiny else dict(TYPED_QUOTAS)
    n_ie = 2 if tiny else IE_TYPES
    items = []
    while any(quotas.values()):
        ctx, term, ty = gen.gen_well_typed(rng, depth=TERM_DEPTH)
        size = node_count(term)
        for (lo, hi), left in quotas.items():
            if lo <= size < hi and left:
                quotas[lo, hi] -= 1
                items.append(_typed_item(len(items), ctx, term, ty))
    theta, cases = _admissibility_cases()
    if tiny:
        cases = cases[:3] + cases[-2:]
    items += [_admissible_item(i, theta, rel, want)
              for i, (rel, want) in enumerate(cases)]
    for i in range(n_ie):
        ty = gen.gen_type(rng, ["a", "b"], IE_DEPTH)
        items.append(_schema_item(
            f"identity-extension:{i}",
            lambda ty=ty: RL.identity_extension_instance(ty)))
    lrl = list(_lrl_terms().items())
    items += [_schema_item(f"lrl:{name}", lambda t=t: RL.lrl_statement(t))
              for name, t in lrl[:2 if tiny else None]]
    probe = [_paren_item(rng.randint(lo, hi)) for lo, hi in PAREN_DEPTHS]
    return items, probe


_BUILDERS = {
    "check-catalog": _check_catalog,
    "encode-verify": _encode_verify,
    "rewrite-deep": _rewrite_deep,
    "small-terms": _small_terms,
}
NAMES = tuple(_BUILDERS)
