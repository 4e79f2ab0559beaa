"""The printer: exact output under binders, no renamed copies of binder
bodies, and the nesting depth it prints at the default recursion limit."""

from __future__ import annotations

import pytest

from pilly import encodings as E, syntax as S
from pilly.parser import parse_term
from pilly.pretty import pp
from pilly.syntax import (
    And, App, Bang, Bound, Compr, Flavor, Forall, ForallRel, ForallTm,
    ForallTy, LetBang, LetStar, LetTensor, LinLam, Lolli, RelApp, RelBound,
    RelVar, Star, Tensor, TensorPair, TyBound, TyLam, TypeRel, TyVar, Unit,
    Var,
)

I = Unit()
R = RelVar("R", I, I)

# (node, sugar, expected output); each binder is built from its de Bruijn
# body, so the hints are exactly the ones written here
EXACT = {
    "same-hint-types": (
        Forall("a", Forall("a", Lolli(TyBound(1), TyBound(0)))), False,
        "all a. all a1. a -o a1"),
    "same-hint-terms": (
        LinLam("x", I, LinLam("x", I, TensorPair(Bound(1), Bound(0)))), False,
        "fn x:I. fn x1:I. x (*) x1"),
    "same-hint-tylams": (
        TyLam("a", TyLam("a", LinLam("x", TyBound(1), Bound(0)))), False,
        "/\\a. /\\a1. fn x:a. x"),
    "hint-is-free-term": (
        LinLam("x", I, App(Bound(0), Var("x"))), False, "fn x1:I. x1 x"),
    "hint-is-free-type": (
        Forall("b", Lolli(TyBound(0), TyVar("b"))), False, "all b1. b1 -o b"),
    "hint-is-free-in-annotation": (
        ForallTm("y", TyVar("y"), RelApp(R, Bound(0), Var("y"))), False,
        "all y1:y. R(y1, y)"),
    "type-rel-hint-clashes-with-outer": (
        ForallTy("a", ForallTm("x", TyBound(0), RelApp(
            TypeRel(("a",), Lolli(TyBound(0), TyBound(1)), (R,)),
            Bound(0), Bound(0)))), False,
        "all a. all x:a. (a1 -o a)[R](x, x)"),
    "type-rel-hints-clash-with-two-outer": (
        ForallTy("a", ForallTy("b", RelApp(
            TypeRel(("b", "a"), Tensor(TyBound(1), TyBound(0)), (R, R)),
            Star(), Star()))), False,
        "all a. all b. b1 * a1[R, R](<>, <>)"),
    "forall-rel-uses-its-bound": (
        ForallRel("R", I, I, Flavor.ADMREL, ForallRel(
            "R", I, I, Flavor.REL, And(RelApp(RelBound(1), Star(), Star()),
                                       RelApp(RelBound(0), Star(), Star())))),
        False,
        "all R : AdmRel(I, I). all R1 : Rel(I, I). R(<>, <>) /\\ R1(<>, <>)"),
    "forall-rel-bound-under-comprehension": (
        ForallRel("S", I, I, Flavor.REL, RelApp(Compr("x", "y", I, I, RelApp(
            RelBound(0), Bound(1), Bound(0))), Star(), Star())), False,
        "all S : Rel(I, I). ((x:I, y:I). S(x, y))(<>, <>)"),
    "lam-carrier-clashes": (
        LinLam("y", Bang(I), LetBang("y", None, Bound(0), Bound(0))), True,
        "lam y:I. y"),
    "lam-carrier-clashes-unsugared": (
        LinLam("y", Bang(I), LetBang("y", None, Bound(0), Bound(0))), False,
        "fn y:!I. let !y1 = y in y1"),
    "lam-under-a-binder": (
        LinLam("z", I, LinLam("x", Bang(I), LetBang(
            "x", I, Bound(0), TensorPair(Bound(0), Bound(2))))), True,
        "fn z:I. lam x:I. x (*) z"),
    "lam-hint-is-free": (
        LinLam("x", Bang(I), LetBang("x", I, Bound(0),
                                     App(Var("x"), Bound(0)))), True,
        "lam x1:I. x x1"),
    "let-tensor-annotation-quantifies-its-hint": (
        LetTensor("x", "y", Forall("x", TyBound(0)), I, Var("p"),
                  TensorPair(Bound(1), Bound(0))), False,
        "let x (*) y : (all x. x) * I = p in x (*) y"),
    "let-tensor-annotation-under-a-type-binder": (
        TyLam("a", LetTensor("x", "y",
                             Forall("a", Lolli(TyBound(0), TyBound(1))), I,
                             Var("p"), TensorPair(Bound(1), Bound(0)))), False,
        "/\\a. let x (*) y : (all a1. a1 -o a) * I = p in x (*) y"),
}


@pytest.mark.parametrize("node,sugar,expected", EXACT.values(), ids=EXACT)
def test_exact_output(node, sugar, expected):
    assert pp(node, sugar) == expected


@pytest.mark.parametrize("hint", sorted(S.KEYWORDS))
def test_binder_hinted_by_a_keyword_round_trips(hint):
    """A binder whose hint is a reserved word gets a name that parses."""
    node = TyLam(hint, LinLam(hint, TyBound(0), Bound(0)))
    out = pp(node)
    assert out.startswith(f"/\\{hint}1. fn {hint}2:")
    assert parse_term(out) == node


@pytest.mark.parametrize("node,message", [
    (LinLam("x", I, Bound(1)), "dangling index while printing"),
    (Forall("a", TyBound(1)), "dangling type index while printing"),
])
def test_dangling_index_is_an_error(node, message):
    with pytest.raises(ValueError, match=message):
        pp(node)


def test_dangling_relation_index_prints_as_unknown():
    p = ForallRel("R", I, I, Flavor.REL, RelApp(RelBound(1), Star(), Star()))
    assert pp(p) == "all R : Rel(I, I). <?rel RelBound(index=0)>(<>, <>)"


def test_printing_never_instantiates_or_shifts(monkeypatch):
    bundles = E.catalog()  # built before the guard: building instantiates

    def refuse(*args, **kwargs):
        raise AssertionError("the printer built a renamed copy of a body")

    monkeypatch.setattr(S._Inst, "__init__", refuse)
    monkeypatch.setattr(S._Shift, "__init__", refuse)
    for b in bundles.values():
        nodes = [b.defined_type]
        for term, ty in b.combinators.values():
            nodes += [term, ty]
        for _, lhs, rhs in b.beta_laws:
            nodes += [lhs, rhs]
        nodes += [prop for _, prop in b.schema_laws]
        for n in nodes:
            for sugar in (False, True):
                pp(n, sugar)


def _fn_let_chain(n: int) -> S.Term:
    t = Star()
    for _ in range(n):
        t = LinLam("x", I, LetStar(Bound(0), t))
    return t


def _tylam_chain(n: int) -> S.Term:
    t = Star()
    for _ in range(n):
        t = TyLam("a", t)
    return t


def _all_chain(n: int) -> S.Type:
    t = I
    for _ in range(n):
        t = Forall("a", t)
    return t


@pytest.mark.parametrize("build,depth,head", [
    (_fn_let_chain, 400, "fn x:I. let <> = x in fn x1:I. let <> = x1 in "),
    (_tylam_chain, 800, "/\\a. /\\a1. /\\a2. "),
    (_all_chain, 800, "all a. all a1. all a2. "),
], ids=["fn-let", "tylam", "all"])
def test_one_frame_per_binder(build, depth, head):
    """At the default recursion limit these chains print only if each
    binder level costs the printer one Python frame."""
    out = pp(build(depth))
    assert out.startswith(head)
    assert out.count(". ") == depth


def test_a_thousand_binders_of_one_hint_are_numbered_in_order():
    """A thousand binders hinted `a` in scope at once are named a, a1,
    ..., a999; the printer's scope stack is driven directly, as a chain
    that deep exceeds the default recursion limit when printed."""
    from pilly.pretty import _TY, _Printer
    printer = _Printer(Star(), False)
    names = [printer.push(_TY, "a") for _ in range(1000)]
    assert names == ["a"] + [f"a{i}" for i in range(1, 1000)]


def test_suffix_freed_by_a_closed_scope_is_reused():
    inner = Forall("a", Forall("a", TyBound(0)))
    node = Forall("a", Tensor(Tensor(inner, Forall("a", TyBound(0))), inner))
    assert pp(node) == ("all a. (all a1. all a2. a2) * (all a1. a1) * "
                        "(all a1. all a2. a2)")
