"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import pathlib
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (TypedGen, gen_scoped_prop, gen_scoped_rel,
                      gen_scoped_term, gen_type, gen_well_typed, scramble)
from pilly import encodings as E
from pilly import relations as RL
from pilly import syntax as S
from pilly.cli import Config, RunReport, elaborate
from pilly.cli import main as cli_main
from pilly.functor import check_functor_laws, m_declared_type, polarity, \
    synthesize_m
from pilly.parser import (Signature, parse_prop, parse_rel, parse_term,
                          parse_type)
from pilly.pretty import pp
from pilly.rewrite import Equal, RewriteConfig, Unknown, equal, step
from pilly.relations import (RelJudgement, derive_admissible,
                             identity_extension_instance, lrl_statement,
                             parametricity_schema_instance, prop_beta)
from pilly.syntax import (Flavor, Lolli, RelContext, RelVar, TermContext,
                          Tensor, TyVar, Unit, arrow)
from pilly.typecheck import (TypeCheckError, check_substitution_lemma,
                             check_type, infer_type)

CFG = RewriteConfig(fuel=10000, y_unroll=0)
EMPTY = TermContext()


@contextmanager
def criterion(n: int, name: str, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} {name}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit else "FAIL"
    print(f"criterion {n:2d} {name}: {verdict} {dt:.2f}s (limit {limit}s)")
    assert dt < limit, f"runtime {dt:.2f}s exceeds the {limit}s budget"


def test_criterion_01_typing_golden_suite(capsys):
    import contextlib
    import io
    with capsys.disabled(), criterion(1, "typing golden suite", 1.0):
        assert infer_type(EMPTY, S.Y()).ty == \
            parse_type("all a. !(!a -o a) -o a")
        cat = (pathlib.Path(__file__).parent.parent / "src" / "pilly"
               / "catalog")
        files = sorted(str(p) for p in cat.glob("*.pilly"))
        assert len(files) == 10
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["check"] + files) == 0
        negatives = [
            ("x (*) x", TermContext(("s",), {}, {"x": TyVar("s")}),
             "LinearVariableReused"),
            ("fn f:s -o s -o I. f x x",
             TermContext(("s",), {}, {"x": TyVar("s")}),
             "LinearVariableReused"),
            ("!x", TermContext(("s",), {}, {"x": TyVar("s")}),
             "LinearInBangBody"),
            ("!(x (*) <>)", TermContext(("s",), {}, {"x": TyVar("s")}),
             "LinearInBangBody"),
            ("<>", TermContext(("s",), {}, {"x": TyVar("s")}),
             "LinearVariableUnused"),
            ("fn x:s. <>", TermContext(("s",)), "LinearVariableUnused"),
            ("let x (*) y = p in x",
             TermContext(("s",), {}, {"p": Tensor(TyVar("s"), TyVar("s"))}),
             "LinearVariableUnused"),
            ("y", EMPTY, "UnboundVariable"),
            ("fn x:q. x", EMPTY, "UnboundVariable"),
            ("<> <>", EMPTY, "NotAFunction"),
            ("<> [I]", EMPTY, "NotAForall"),
            ("(fn x:I. x) Y", EMPTY, "TypeMismatch"),
        ]
        assert len(negatives) == 12
        for src, ctx, kind in negatives:
            with pytest.raises(TypeCheckError) as e:
                infer_type(ctx, parse_term(src))
            assert e.value.kind == kind, src
    capsys.readouterr()


def test_criterion_02_type_uniqueness(capsys):
    with capsys.disabled(), criterion(2, "type uniqueness", 10.0):
        rng, hints = random.Random(102), random.Random(202)
        for _ in range(1000):
            ctx, t, _ = gen_well_typed(rng, depth=6)
            first = infer_type(ctx, t).ty
            second = infer_type(ctx, scramble(t, hints)).ty
            assert S.alpha_eq(first, second)


def test_criterion_03_substitution_lemmas(capsys):
    with capsys.disabled(), criterion(3, "substitution lemmas", 10.0):
        rng = random.Random(103)
        g = TypedGen(rng)
        for _ in range(500):
            u, sigma = g.gen(["s"], {}, {}, 3)
            ctx = TermContext(("s",), {"gv": Unit()}, {"lx": sigma})
            t, _ = g.gen(["s"], dict(ctx.gamma), dict(ctx.delta), 3)
            check_substitution_lemma(
                "linear", ctx, t, "lx", u,
                ctx_u=TermContext(("s",), {"gv": Unit()}, {}))
        for _ in range(500):
            u, sigma = g.gen(["s"], {}, {}, 3)
            ctx = TermContext(("s",), {"gx": sigma}, {})
            t, _ = g.gen(["s"], dict(ctx.gamma), {}, 3)
            check_substitution_lemma("intuitionistic", ctx, t, "gx", u)
        for _ in range(500):
            ctx = TermContext(("s", "b"), {}, {"lx": TyVar("b")})
            t, _ = g.gen(["s", "b"], {}, dict(ctx.delta), 3)
            rep = g.type_(["s"], 2)
            check_substitution_lemma("type", ctx, t, "b", None, rep_ty=rep)


def test_criterion_04_subject_reduction(capsys):
    with capsys.disabled(), criterion(4, "subject reduction", 20.0):
        rng = random.Random(104)
        for _ in range(1000):
            ctx, t, ty = gen_well_typed(rng, depth=5)
            for _ in range(40):
                nxt = step(t)
                if nxt is None:
                    break
                t = nxt
                assert infer_type(ctx, t).ty == ty


def test_criterion_05_equality_proof_replay(capsys):
    with capsys.disabled(), criterion(5, "equality proof replay", 5.0):
        n = E.nat_type()
        one = E.void_type()
        bundles = [
            E.encode_iso_self(Unit()),
            E.encode_iso_self(n),
            E.encode_tensor(n, Unit()),
            E.encode_unit(),
            E.encode_sum(n, Unit()),
            E.encode_product(n, Unit()),
            E.encode_nat(),
            E.encode_exists("a", Tensor(TyVar("a"), n)),
            E.encode_mu("a", E.sum_type(one, TyVar("a"))),
            E.encode_nu("a", Tensor(n, TyVar("a"))),
        ]
        laws = 0
        for b in bundles:
            for name, lhs, rhs in b.beta_laws:
                r = equal(lhs, rhs, CFG, ctx=EMPTY)
                assert not isinstance(r, Unknown), (b.name, name)
                assert isinstance(r, Equal), (b.name, name)
                laws += 1
        assert laws >= 10


def test_criterion_06_functor_laws(capsys):
    with capsys.disabled(), criterion(6, "functor-law catalog", 5.0):
        catalog = ["b", "!b", "b * b", "a -o b", "all g. b * g"]
        unknowns = 0
        for src in catalog:
            ty = parse_type(src)
            m = synthesize_m(ty, "a", "b")
            assert infer_type(EMPTY, m).ty == m_declared_type(ty, "a", "b")
            ident, comp = check_functor_laws(ty, "a", "b", CFG)
            assert isinstance(ident, Equal), src
            if not isinstance(comp, Equal):
                unknowns += 1
        assert unknowns <= 1


def test_criterion_07_rec_pipeline(capsys):
    with capsys.disabled(), criterion(7, "recursive type pipeline", 2.0):
        n = E.nat_type()
        lazy = E.sum_type(E.void_type(), Tensor(n, TyVar("a")))
        for body in (lazy, Lolli(TyVar("a"), TyVar("a"))):
            b = E.encode_rec("a", body)
            rec = b.defined_type
            assert not S.free_type_names(rec)
            sigma_rec = S.subst_type_in_type(body, "a", rec)
            # i and its inverse at the documented types
            for name, want in (("iso", Lolli(sigma_rec, rec)),
                               ("iso_inv", Lolli(rec, sigma_rec))):
                term, claimed = b.combinators[name]
                assert claimed == want
                check_type(EMPTY, term, claimed)
            # the mediators: all w,w'. (s(w',w)-ow) -> (w'-os(w,w')) -> ...
            for name, result in (("mediate", lambda w, w2: Lolli(rec, w)),
                                 ("mediate_inv",
                                  lambda w, w2: Lolli(w2, rec))):
                term, claimed = b.combinators[name]
                assert isinstance(claimed, S.Forall)
                w, inner1 = S.open_forall(claimed, set())
                w2, inner2 = S.open_forall(inner1, {w})
                from pilly.functor import split_occurrences
                sp = split_occurrences(body, "a")
                s_at = lambda neg, pos: S.subst_types(
                    sp.split, {sp.neg_var: neg, sp.pos_var: pos})
                want = arrow(
                    Lolli(s_at(TyVar(w2), TyVar(w)), TyVar(w)),
                    arrow(Lolli(TyVar(w2), s_at(TyVar(w), TyVar(w2))),
                          result(TyVar(w), TyVar(w2))))
                assert inner2 == want, name
                check_type(EMPTY, term, claimed)
        # parameterized variant: polarity swap of the companion
        bp = E.encode_rec_params(["a1"], ["b1"], "b",
                                 Tensor(TyVar("b1"), TyVar("b")))
        tau = bp.defined_type
        assert polarity(tau, "b1").positive and not polarity(tau, "b1").negative
        assert not polarity(tau, "a1").positive
        _, out_ty = bp.combinators["outof"]
        # the companion type appears under the outer quantifiers; the
        # parameter roles swap: a1 becomes positive, b1 never positive
        inner = out_ty
        seen = set()
        while isinstance(inner, S.Forall):
            v, inner = S.open_forall(inner, seen)
            seen.add(v)
        companion = inner.dom
        assert polarity(companion, "a1").positive
        assert not polarity(companion, "a1").negative
        assert not polarity(companion, "b1").positive
        # checked as `pilly encode` checks it
        report = RunReport()
        elaborate([d for _, d in E.bundle_decls(bp)], Signature(), None,
                  bp.name, Config(fuel=CFG.fuel, y_unroll=CFG.y_unroll),
                  report)
        assert report.exit_code(strict=True) == 0


def test_criterion_08_admissibility_suite(capsys):
    with capsys.disabled(), criterion(8, "admissibility suite", 1.0):
        s, t = TyVar("s"), TyVar("t")
        theta = RelContext(entries={
            "R": (s, t, Flavor.REL),
            "R2": (s, s, Flavor.REL),
            "Sa": (s, t, Flavor.ADMREL),
            "Sb": (t, t, Flavor.ADMREL),
            "Sc": (s, s, Flavor.ADMREL),
        })
        raw = RelVar("R", s, t, Flavor.REL)
        raw2 = RelVar("R2", s, s, Flavor.REL)
        adm = RelVar("Sa", s, t, Flavor.ADMREL)
        adm2 = RelVar("Sb", t, t, Flavor.ADMREL)
        adm3 = RelVar("Sc", s, s, Flavor.ADMREL)
        ids = parse_term("fn x:s. x")
        idt = parse_term("fn y:t. y")
        positive = [
            RL.eq_rel(Unit()),
            RL.eq_rel(s),
            RL.eq_rel(parse_type("s -o t")),
            RL.graph_rel(ids, s, s),
            RL.graph_rel(parse_term("fn x:I. x"), Unit(), Unit()),
            adm,
            adm2,
            RL.reindex(adm, ids, idt, s, t),
            RL.reindex(RL.eq_rel(s), ids, ids, s, s),
            RL.reindex(adm2, idt, idt, t, t),
            RL.lolli_rel(raw, adm),
            RL.lolli_rel(adm, adm),
            RL.lolli_rel(RL.eq_rel(s), adm),
            RL.lolli_rel(raw, RL.eq_rel(t)),
            RL.arrow_rel(raw, adm),
            RL.arrow_rel(RL.eq_rel(s), adm),
            RL.tensor_rel(raw, raw),
            RL.tensor_rel(raw, adm),
            RL.tensor_rel(adm, adm),
            RL.tensor_rel(RL.eq_rel(s), raw),
            RL.bang_rel(raw),
            RL.bang_rel(adm),
            RL.bang_rel(RL.eq_rel(s)),
            RL.unit_rel(),
            RL.type_rel_interp(parse_type("all b. b"), []),
            RL.type_rel_interp(parse_type("all b. b -o b"), []),
            RL.type_rel_interp(parse_type("s -o s"), [adm3]),
            RL.closure_phi(raw),
            RL.closure_phi(adm),
            RL.closure_phi(RL.unit_rel()),
        ]
        assert len(positive) == 30
        for i, rel in enumerate(positive):
            j = RelJudgement(("s", "t"), {}, theta, rel)
            assert derive_admissible(j) is not None, i
        negative = [
            raw,
            RL.lolli_rel(adm, raw),
            RL.arrow_rel(adm, raw),
            S.compr("x", s, "y", t,
                    S.Or(S.Top(), S.RelApp(adm, S.Var("x"), S.Var("y")))),
            S.compr("x", s, "y", t,
                    S.exists_tm_p("z", Unit(),
                                  S.RelApp(adm, S.Var("x"), S.Var("y")))),
        ]
        assert len(negative) == 5
        for i, rel in enumerate(negative):
            j = RelJudgement(("s", "t"), {}, theta, rel)
            assert derive_admissible(j) is None, i


def test_criterion_09_schema_generators(capsys):
    with capsys.disabled(), criterion(9, "schema generators", 1.0):
        fixpoint_sig = parse_type("(b -> b) -> b")
        schema = parametricity_schema_instance("b", fixpoint_sig)
        assert isinstance(schema, S.ForallTm)
        at_y = prop_beta(S.instantiate_tm(schema.body, S.Y()))
        assert S.alpha_eq(at_y, lrl_statement(S.Y()))
        # identity extension and self-relatedness across the catalog
        n = E.nat_type()
        catalog_types = [Unit(), n, E.void_type(),
                         E.sum_type(n, Unit()), E.mu_type("a", TyVar("a")),
                         parse_type("a"), parse_type("a * a"),
                         parse_type("all b. a -o b")]
        for ty in catalog_types:
            p = identity_extension_instance(ty)
            RL.check_prop((), {}, RelContext(), p)
        nat = E.encode_nat()
        closed_terms = [S.Y(), S.poly_id(), nat.combinators["zero"][0],
                        nat.combinators["succ"][0],
                        nat.combinators["iter"][0],
                        E.encode_unit().combinators["fwd"][0]]
        for t in closed_terms:
            p = lrl_statement(t)
            RL.check_prop((), {}, RelContext(), p)


def test_criterion_10_round_trip(capsys):
    with capsys.disabled(), criterion(10, "print/parse round trip", 10.0):
        rng = random.Random(110)
        sig = Signature()
        sig.rels["R"] = (Unit(), Unit(), Flavor.REL, None)
        sig.rels["Sa"] = (Unit(), Unit(), Flavor.ADMREL, None)
        rels = {k: (d, c, f) for k, (d, c, f, _) in sig.rels.items()}
        count = 0
        for _ in range(800):
            ty = gen_type(rng, ["a", "b"], 4)
            assert parse_type(pp(ty)) == ty
            count += 1
        for _ in range(600):
            t = gen_scoped_term(rng, ["a"], ["v", "w"], 4)
            assert parse_term(pp(t)) == t
            count += 1
        for _ in range(300):
            r = gen_scoped_rel(rng, ["a"], ["v"], rels, 3)
            assert parse_rel(pp(r), sig) == r
            count += 1
        for _ in range(300):
            p = gen_scoped_prop(rng, ["a"], ["v"], rels, 3)
            assert parse_prop(pp(p), sig) == p
            count += 1
        assert count == 2000
