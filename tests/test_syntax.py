"""Substitution, alpha-equivalence and binding discipline.

The substitution oracle converts to a fully-named tree with globally
fresh binder names, replaces textually, and converts back; capture is
impossible because every binder is renamed first.
"""

import dataclasses
import itertools
import random

import pytest

from conftest import (gen_scoped_prop, gen_scoped_rel, gen_scoped_term,
                      gen_type, gen_well_typed, scramble)
from pilly import encodings as E
from pilly import syntax as S
from pilly.parser import parse_term, parse_type
from pilly.syntax import (Bang, Forall, Lolli, Tensor, TyVar, Unit,
                          alpha_eq, subst_term_in_term, subst_type_in_type)

_counter = itertools.count()


def _fresh() -> str:
    return f"_o{next(_counter)}"


# --- named-tree oracle for types


def ty_to_named(t, env):
    if isinstance(t, TyVar):
        return ("fv", t.name)
    if isinstance(t, S.TyBound):
        return ("fv", env[-1 - t.index])
    if isinstance(t, Unit):
        return ("unit",)
    if isinstance(t, Lolli):
        return ("lolli", ty_to_named(t.dom, env), ty_to_named(t.cod, env))
    if isinstance(t, Tensor):
        return ("tensor", ty_to_named(t.left, env), ty_to_named(t.right, env))
    if isinstance(t, Bang):
        return ("bang", ty_to_named(t.body, env))
    if isinstance(t, Forall):
        n = _fresh()
        return ("forall", n, ty_to_named(t.body, env + [n]))
    raise AssertionError(t)


def named_subst_ty(t, var, rep):
    tag = t[0]
    if tag == "fv":
        return rep if t[1] == var else t
    if tag == "unit":
        return t
    if tag == "forall":
        return ("forall", t[1], named_subst_ty(t[2], var, rep))
    return (tag,) + tuple(named_subst_ty(c, var, rep) for c in t[1:])


def ty_from_named(t):
    tag = t[0]
    if tag == "fv":
        return TyVar(t[1])
    if tag == "unit":
        return Unit()
    if tag == "lolli":
        return Lolli(ty_from_named(t[1]), ty_from_named(t[2]))
    if tag == "tensor":
        return Tensor(ty_from_named(t[1]), ty_from_named(t[2]))
    if tag == "bang":
        return Bang(ty_from_named(t[1]))
    if tag == "forall":
        return S.forall(t[1], ty_from_named(t[2]))
    raise AssertionError(t)


def oracle_subst_ty(ty, var, rep):
    return ty_from_named(
        named_subst_ty(ty_to_named(ty, []), var, ty_to_named(rep, [])))


class TestSubstType:
    def test_direct_replacement(self):
        got = subst_type_in_type(parse_type("a -o b"), "a", Unit())
        assert got == parse_type("I -o b")

    def test_shadowed_binder(self):
        ty = parse_type("all a. a -o b")
        assert subst_type_in_type(ty, "a", Unit()) == ty

    def test_capture_avoided(self):
        ty = parse_type("all g. g -o a")
        got = subst_type_in_type(ty, "a", TyVar("g"))
        expect = oracle_subst_ty(ty, "a", TyVar("g"))
        assert got == expect
        assert got == S.forall("g2", Lolli(TyVar("g2"), TyVar("g")))

    def test_fuzz_against_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            ty = gen_type(rng, ["a", "b"], 4)
            rep = gen_type(rng, ["g"], 3)
            got = subst_type_in_type(ty, "a", rep)
            assert got == oracle_subst_ty(ty, "a", rep)


class TestSubstTerm:
    def test_tensor_component(self):
        got = subst_term_in_term(parse_term("x (*) y"), "x", S.Star())
        assert got == parse_term("<> (*) y")

    def test_fresh_rename(self):
        t = S.lin_lam("y", TyVar("s"), S.Var("x"))
        got = subst_term_in_term(t, "x", S.Var("y"))
        assert got == S.lin_lam("w", TyVar("s"), S.Var("y"))
        # the binder no longer captures: the substituted var stays free
        assert "y" in S.free_term_names(got)

    def test_let_bang_scrutinee(self):
        t = parse_term("let !z = x in z")
        got = subst_term_in_term(t, "x", parse_term("!<>"))
        assert got == parse_term("let !z = !<> in z")

    def test_composition(self):
        # t[u/x][v/y] == t[v/y][ u[v/y] /x]  when x not free in v
        rng = random.Random(5)
        for _ in range(200):
            t = gen_scoped_term(rng, ["s"], ["x", "y"], 4)
            u = gen_scoped_term(rng, ["s"], ["y"], 3)
            v = gen_scoped_term(rng, ["s"], [], 3)
            lhs = subst_term_in_term(subst_term_in_term(t, "x", u), "y", v)
            rhs = subst_term_in_term(
                subst_term_in_term(t, "y", v), "x",
                subst_term_in_term(u, "y", v))
            assert lhs == rhs


class TestAlphaEq:
    def test_binder_names_ignored(self):
        assert alpha_eq(parse_type("all a. a"), parse_type("all b. b"))
        assert alpha_eq(parse_term("fn x:I. x"), parse_term("fn y:I. y"))
        assert not alpha_eq(parse_type("a -o b"), parse_type("b -o a"))

    def test_annotations_matter(self):
        assert not alpha_eq(parse_term("fn x:I. x"),
                            parse_term("fn x:I -o I. x"))

    def test_equivalence_relation(self):
        rng = random.Random(3)
        terms = [gen_scoped_term(rng, ["s"], ["z"], 4) for _ in range(60)]
        for t in terms:
            assert alpha_eq(t, t)
        for t, u in zip(terms, terms[1:]):
            assert alpha_eq(t, u) == alpha_eq(u, t)

    def test_hint_scrambling_is_invisible(self):
        rng = random.Random(4)

        class Scramble(S.VarMap):
            pass

        for _ in range(50):
            t = gen_scoped_term(rng, ["s"], ["z"], 4)
            renamed = scramble(t, rng)
            assert alpha_eq(t, renamed)


class TestRelSignature:
    def test_compr(self):
        r = S.compr("x", Unit(), "y", TyVar("t"), S.Top())
        assert S.rel_signature(r) == (Unit(), TyVar("t"))

    def test_type_rel(self):
        rv = S.RelVar("R", Unit(), TyVar("t"), S.Flavor.REL)
        tr = S.type_rel(["a"], Lolli(TyVar("a"), TyVar("a")), [rv])
        dom, cod = S.rel_signature(tr)
        assert dom == Lolli(Unit(), Unit())
        assert cod == Lolli(TyVar("t"), TyVar("t"))

    def test_nested_folds_cost_one_call_per_level(self, monkeypatch):
        """Each argument's signature is computed once, so a 30-deep fold
        parses in 31 calls rather than 2**31."""
        from pilly.parser import parse_file
        real, calls = S.rel_signature, []

        def counting(r):
            calls.append(r)
            assert len(calls) <= 100, "an argument's signature is recomputed"
            return real(r)

        monkeypatch.setattr(S, "rel_signature", counting)
        src = ("rel R : Rel(I, I)\nrel G = " + "(a -o a)[" * 30 + "R"
               + "]" * 30 + "\n")
        prog, diags = parse_file(src)
        assert not diags
        assert len(calls) == 31


# --- cached loose bounds: the bound-index maps skip subtrees they cannot
# change; a walk with the skip turned off is the reference


_SORTS = (S.Type, S.Term, S.Relation, S.Proposition)


def _subnodes(obj):
    """Every node in obj, outermost first."""
    todo, out = [obj], []
    while todo:
        x = todo.pop()
        if isinstance(x, _SORTS):
            out.append(x)
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, tuple):
            todo.extend(x)
    return out


def _full_walk(obj, m, td=0, md=0, rd=0):
    m.skips = False
    return S.map_node(obj, m, td, md, rd)


_FIELDS: dict[type, tuple[str, ...]] = {}


def _same(a, b) -> bool:
    """Identical in every field, with hints, spans and let annotations,
    which `==` skips."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if type(x) is tuple:
            if len(x) != len(y):
                return False
            todo.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            names = _FIELDS.get(type(x))
            if names is None:
                names = _FIELDS[type(x)] = tuple(
                    f.name for f in dataclasses.fields(x))
            todo.extend((getattr(x, n), getattr(y, n)) for n in names)
        elif x != y:
            return False
    return True


class _LooseRef(S.VarMap):
    """1 + the largest loose index per namespace, by a full walk."""

    def __init__(self):
        self.bounds = [0, 0, 0]

    def bound(self, node, ns, env):
        self.bounds[ns] = max(self.bounds[ns], node.index - env[ns] + 1)
        return node


def _loose_corpus():
    """Every node of seeded scoped terms, well-typed terms, propositions
    and relations, and at most 150 nodes of each catalog schema law."""
    rng = random.Random(17)
    out = []
    for _ in range(80):
        out += _subnodes(gen_scoped_term(rng, ["s"], ["z"], 5))
    for _ in range(40):
        out += _subnodes(gen_well_typed(rng, 4)[1])
    rels = {"R": (Unit(), TyVar("s"), S.Flavor.REL)}
    for _ in range(40):
        out += _subnodes(gen_scoped_prop(rng, ["s"], ["z"], rels, 4))
        out += _subnodes(gen_scoped_rel(rng, ["s"], ["z"], rels, 3))
    for b in E.catalog().values():
        for _, law in b.schema_laws:
            nodes = _subnodes(law)
            out += nodes[::len(nodes) // 150 + 1]
    return out


class _Recording:
    """Mixin for a VarMap that records every node a hook is called on."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def free(self, node, ns, env):
        self.calls.append(node)
        return super().free(node, ns, env)

    def bound(self, node, ns, env):
        self.calls.append(node)
        return super().bound(node, ns, env)


class TestLooseBounds:
    def test_cached_bounds_match_a_full_walk(self):
        for n in _loose_corpus():
            ref = _LooseRef()
            S.map_node(n, ref)
            assert S._loose(n) == tuple(ref.bounds)

    def test_maps_match_a_full_walk(self):
        rep_tm = [S.Star(), S.Var("q"), S.Bound(1),
                  S.TyApp(S.Bound(0), S.TyBound(0))]
        rep_ty = [Unit(), TyVar("q"), S.TyBound(1)]
        for i, n in enumerate(_loose_corpus()):
            for by, cut in ((1, 0), (2, 1), (-1, 1)):
                assert _same(S.shift(n, ty_by=by, td=cut), _full_walk(
                    n, S._Shift((by, 0, 0)), td=cut))
                assert _same(S.shift(n, tm_by=by, md=cut), _full_walk(
                    n, S._Shift((0, by, 0)), md=cut))
            if isinstance(n, S.Term):
                arg = rep_tm[i % len(rep_tm)]
                assert _same(S.instantiate_tm(n, arg), _full_walk(
                    n, S._Inst(1, (arg,))))
                assert _same(S.instantiate_tm(n, arg, S.Star()), _full_walk(
                    n, S._Inst(1, (arg, S.Star()))))
            ty = rep_ty[i % len(rep_ty)]
            assert _same(S.instantiate_ty(n, ty),
                         _full_walk(n, S._Inst(0, (ty,))))
            for k in range(3):
                for ns in (1, 0):
                    ref = S._UsesBound(ns, k)
                    _full_walk(n, ref)
                    uses = S.uses_bound_tm if ns == 1 else S.uses_bound_ty
                    assert uses(n, k) == ref.found

    def test_relation_maps_match_a_full_walk(self):
        """The relation-index maps, and term instantiation in the logic,
        give the full walk's result and share what they leave unchanged."""
        unit = Unit()
        rep_rel = [S.RelVar("Q", unit, unit), S.RelBound(1),
                   S.compr("x", unit, "y", unit, S.Top())]
        for i, n in enumerate(_loose_corpus()):
            for by, cut in ((1, 0), (2, 1), (-1, 1)):
                got = S.shift(n, rel_by=by, rd=cut)
                assert _same(got, _full_walk(n, S._Shift((0, 0, by)), rd=cut))
                _assert_shared(n, got)
            rel = rep_rel[i % len(rep_rel)]
            got = S.instantiate_rel(n, rel)
            assert _same(got, _full_walk(n, S._Inst(2, (rel,))))
            _assert_shared(n, got)
            if isinstance(n, (S.Relation, S.Proposition)):
                args = (S.Var("q"), S.Star())
                assert _same(S.instantiate_tm(n, *args), _full_walk(
                    n, S._Inst(1, args)))

    def test_relation_maps_skip_subtrees_without_their_variable(self):
        """instantiate_rel and close_rel call no hook inside a proposition
        that has no loose relation index, or no free R."""
        unit = Unit()
        side = S.forall_tm_p("x", unit, S.And(
            S.RelApp(S.RelVar("Q", unit, unit), S.Var("x"), S.Star()),
            S.forall_rel_p("P", unit, unit, S.Flavor.REL, S.RelApp(
                S.RelVar("P", unit, unit), S.Var("x"), S.Var("x")))))
        hole = S.RelApp(S.RelBound(0), S.Star(), S.Star())

        class InstSpy(_Recording, S._Inst):
            pass

        class CloseSpy(_Recording, S._Close):
            pass

        inst = InstSpy(2, (S.RelVar("R", unit, unit),))
        got = S.map_node(S.Implies(side, hole), inst)
        assert inst.calls == [S.RelBound(0)] and got.left is side
        named = S.RelApp(S.RelVar("R", unit, unit), S.Star(), S.Star())
        close = CloseSpy(2, ("R",))
        got = S.map_node(S.Implies(side, named), close)
        assert close.calls == [named.rel] and got.left is side
        assert got.right == hole
        assert S.instantiate_rel(side, named.rel) is side
        assert S.close_rel(side, "R") is side
        assert S.shift(side, rel_by=1) is side

    def test_closed_subtrees_are_returned_without_a_walk(self):
        closed = parse_term("/\\a. fn x:a -o a. fn y:a. x (let !z = !y in z)")
        seen = []

        class Spy(S._Shift):
            def bound(self, node, ns, env):
                seen.append(node)
                return super().bound(node, ns, env)

        assert S.map_node(closed, Spy((1, 1, 0))) is closed
        assert seen == []
        assert S.shift(closed, ty_by=2, tm_by=3) is closed
        assert S.instantiate_tm(closed, S.Star()) is closed
        assert S.instantiate_ty(closed, Unit()) is closed
        assert not S.uses_bound_tm(closed) and not S.uses_bound_ty(closed)
        opened = S.App(closed, S.Bound(0))
        shifted = S.shift(opened, tm_by=1)
        assert shifted == S.App(closed, S.Bound(1)) and shifted.fn is closed
        ty = parse_type("all a. a -o a")
        assert S.shift(ty, ty_by=1) is ty
        assert S.instantiate_ty(ty, Unit()) is ty

    def test_equality_hash_and_repr_ignore_the_cache(self):
        src = "/\\a. fn x:a. let !y = !x in (fn z:a. z) y"
        a, b = parse_term(src), parse_term(src)
        for n in _subnodes(a):
            S._loose(n)
        assert a._lb is not None and b._lb is None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_lb" not in repr(a)
        assert [f.name for f in dataclasses.fields(a)] == ["hint", "body",
                                                           "span"]


# --- cached free names: the queries read each type or term node's cached
# names; the pre-order walk over `subnodes` is the reference


def _walk_names(obj, cls):
    return list(dict.fromkeys(x.name for x in S.subnodes(obj)
                              if isinstance(x, cls)))


def _opened(obj, names=None):
    """obj with every binder opened, outermost first, to the names o0,
    o1, ...: the binders stay, vacuous, and free names sit at every
    depth."""
    names = names if names is not None else itertools.count()
    if isinstance(obj, (S.TyLam, S.Forall, S.ForallTy, S.ExistsTy)):
        obj = S.rebuild(obj, {"body": S.instantiate_ty(
            obj.body, TyVar(f"o{next(names)}"))})
    elif isinstance(obj, (S.LinLam, S.LetBang, S.ForallTm, S.ExistsTm)):
        obj = S.rebuild(obj, {"body": S.instantiate_tm(
            obj.body, S.Var(f"o{next(names)}"))})
    elif isinstance(obj, (S.LetTensor, S.Compr)):
        obj = S.rebuild(obj, {"body": S.instantiate_tm(
            obj.body, S.Var(f"o{next(names)}"), S.Var(f"o{next(names)}"))})
    changes = {}
    for name, sort, *_ in S.CHILDREN.get(type(obj), ()):
        c = getattr(obj, name)
        if type(c) is tuple:
            changes[name] = tuple(_opened(a, names) for a in c)
        elif c is not None and not (type(obj) is S.TypeRel and sort is S.Type):
            changes[name] = _opened(c, names)
    return S.rebuild(obj, changes) if changes else obj


def _name_corpus():
    """Fresh roots: every catalog bundle's type, combinators and laws,
    with every binder opened, and seeded scoped terms, propositions and
    relations over free names."""
    out = []
    for b in E.catalog().values():
        out.append(b.defined_type)
        for t, ty in b.combinators.values():
            out += [t, ty]
        for _, lhs, rhs in b.beta_laws:
            out += [lhs, rhs]
        out += [p for _, p in b.schema_laws]
    out = [_opened(o) for o in out]
    rng = random.Random(29)
    rels = {"R": (Unit(), TyVar("s"), S.Flavor.REL)}
    for _ in range(30):
        out.append(gen_scoped_term(rng, ["s", "t"], ["z", "w"], 5))
        out.append(gen_scoped_prop(rng, ["s"], ["z"], rels, 4))
        out.append(gen_scoped_rel(rng, ["s", "t"], ["w"], rels, 3))
    return out


def _annotations(n) -> list:
    return [(x.tyx, x.tyy) if isinstance(x, S.LetTensor) else x.ty
            for x in S.subnodes(n) if isinstance(x, (S.LetTensor, S.LetBang))]


def _assert_shared(old, new):
    """Each subtree of `new` equal to the subtree of `old` at the same
    place, let annotations included (`==` skips them), is that very
    object."""
    todo = [(old, new)]
    while todo:
        a, b = todo.pop()
        if a == b and _annotations(a) == _annotations(b):
            assert a is b
        elif type(a) is type(b):
            for name, *_ in S.CHILDREN.get(type(a), ()):
                ca, cb = getattr(a, name), getattr(b, name)
                if type(ca) is tuple and len(ca) == len(cb):
                    todo.extend(zip(ca, cb))
                elif ca is not None and cb is not None:
                    todo.append((ca, cb))


class TestFreeNameCache:
    @pytest.mark.parametrize("outer_first", [True, False])
    def test_queries_match_a_walk(self, outer_first):
        """Same names, in the same order, whether the caches fill from
        the root down or from the leaves up (at most 150 nodes a root)."""
        checked = named = 0
        for obj in _name_corpus():
            nodes = list(S.subnodes(obj))
            nodes = nodes[::len(nodes) // 150 + 1]
            if not outer_first:
                nodes.reverse()
            for n in nodes:
                tys = _walk_names(n, TyVar)
                tms = _walk_names(n, S.Var)
                assert S.free_type_names(n) == tys
                assert S.free_term_names(n) == tms
                assert S.all_free_names(n) == set(
                    tys + tms + _walk_names(n, S.RelVar))
                rels = _walk_names(n, S.RelVar)
                assert S._free(n) == (tuple(tys), tuple(tms), tuple(rels))
                checked += 1
                named += bool(tys or tms)
        assert named > checked // 2

    def test_name_maps_match_a_full_walk(self):
        """close_* and subst_* skip the subtrees that miss their names:
        the result is the full walk's, and what they leave unchanged is
        shared."""
        for i, obj in enumerate(_name_corpus()):
            tys, tms = S.free_type_names(obj), S.free_term_names(obj)
            rels = sorted(S.all_free_names(obj) - set(tys) - set(tms))
            cases = []
            if tys:
                a = tys[i % len(tys)]
                cases += [(S.close_ty(obj, *tys[:2]), S._Close(0, tys[:2])),
                          (S.subst_types(obj, {a: Unit()}),
                           S._Subst(0, {a: Unit()}))]
            if tms:
                x = tms[i % len(tms)]
                rep = S.App(S.Var("q"), S.Star())
                cases += [(S.close_tm(obj, *tms[-2:]), S._Close(1, tms[-2:])),
                          (S.subst_terms(obj, {x: rep}),
                           S._Subst(1, {x: rep}))]
            if rels:
                cases.append((S.close_rel(obj, rels[0]),
                              S._Close(2, (rels[0],))))
            for got, m in cases:
                assert _same(got, _full_walk(obj, m))
                _assert_shared(obj, got)

    def test_name_free_subtrees_are_not_walked(self):
        big = parse_term("/\\a. fn y:a -o a. fn z:a. y (let !w = !z in w) k")
        t = S.App(S.App(big, S.Var("x")), big)
        calls = []

        class Spy(S._Close):
            def free(self, node, ns, env):
                calls.append(node.name)
                return super().free(node, ns, env)

        got = S.map_node(t, Spy(1, ("x",)))
        assert calls == ["x"]
        assert got.fn.fn is big and got.arg is big
        assert S.close_tm(big, "x") is big
        assert S.subst_terms(big, {"x": S.Star()}) is big
        assert S.subst_types(big, {"a": Unit()}) is big
        assert S.close_rel(big, "R") is big

    def test_each_map_leaves_the_other_namespaces_alone(self):
        """One free `a` in each namespace, and a loose index 0 in each:
        every map changes the variables of its own namespace only."""
        unit, star, a = Unit(), S.Star(), TyVar("a")

        def prop(rel, dom=a, fn=S.Var("a"), tm=S.Bound(0), ty=S.TyBound(0),
                 rhs=S.Var("a")):
            rel = S.RelVar("a", dom, dom) if rel is None else rel
            return S.RelApp(rel, S.App(fn, S.TyApp(tm, ty)), rhs)

        p, twin = prop(None), prop(S.RelBound(0))
        assert S.subst_types(p, {"a": unit}) == prop(None, dom=unit)
        assert S.subst_terms(p, {"a": star}) == prop(None, fn=star, rhs=star)
        assert S.close_ty(p, "a") == prop(None, dom=S.TyBound(0))
        assert S.close_tm(p, "a") == prop(None, fn=S.Bound(0),
                                          rhs=S.Bound(0))
        assert S.close_rel(p, "a") == twin
        q = S.RelVar("Q", unit, unit)
        assert S.instantiate_ty(twin, unit) == prop(S.RelBound(0), ty=unit)
        assert S.instantiate_tm(twin, star) == prop(S.RelBound(0), tm=star)
        assert S.instantiate_rel(twin, q) == prop(q)
        assert S.instantiate_rel(p, q) is p
        assert not S.uses_bound_tm(S.TyApp(S.Bound(1), S.TyBound(0)))
        assert not S.uses_bound_ty(S.App(S.Bound(0),
                                         S.TyApp(star, S.TyBound(1))))

    def test_rebuild_drops_the_cache(self):
        t = S.App(S.Var("f"), S.TyApp(S.Var("x"), TyVar("a")))
        assert S.free_term_names(t) == ["f", "x"]
        u = S.rebuild(t, {"arg": S.TyApp(S.Var("y"), TyVar("b"))})
        assert S.free_term_names(u) == ["f", "y"]
        assert S.free_type_names(u) == ["b"]
        assert S.all_free_names(u) == {"f", "y", "b"}
        assert S.free_type_names(S.rebuild(u, {"fn": S.Var("g")})) == ["b"]
        assert "_fn" not in repr(t) and t == S.App(S.Var("f"), S.TyApp(
            S.Var("x"), TyVar("a")))


class TestChildTable:
    def test_table_covers_the_syntax(self):
        """Every node class lists exactly its node-valued fields in the
        table, with their sort; a class without any is a leaf, which
        holds its loose bounds and free names on the class.  A leaf with
        a name or an index is a variable: map_node calls a hook on it with
        its namespace, and a bound one is what _BOUND builds there."""
        sorts = (S.Type, S.Term, S.Relation, S.Proposition)
        todo, classes = list(sorts), set()
        while todo:
            for sub in todo.pop().__subclasses__():
                classes.add(sub)
                todo.append(sub)
        assert set(S.CHILDREN) <= classes
        variables = set()
        for cls in classes:
            assert dataclasses.is_dataclass(cls), cls
            annotated = {f.name: f.type for f in dataclasses.fields(cls)
                         if any(s.__name__ in f.type for s in sorts)}
            kids = S.CHILDREN.get(cls, ())
            assert [name for name, *_ in kids] == list(annotated), cls
            for name, sort, *_ in kids:
                assert sort.__name__ in annotated[name], (cls, name)
            # an inner node caches on the instance, a leaf on its class
            if cls in S.CHILDREN:
                assert cls._lb is None and cls._fn is None, cls
            else:
                assert cls._lb is not None and cls._fn is not None, cls
            fields = {f.name for f in dataclasses.fields(cls)}
            if cls not in S.CHILDREN and fields & {"name", "index"}:
                variables.add(cls)
                assert cls in S._WALK and cls in S._NS, cls
                if "index" in fields:
                    assert S._BOUND[S._NS[cls]] is cls, cls
        assert variables == {TyVar, S.TyBound, S.Var, S.Bound, S.RelBound}
