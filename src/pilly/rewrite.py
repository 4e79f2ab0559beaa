"""Directed, fuel-bounded rewriting and the equality decision procedure.

One deterministic strategy: at each node in pre-order, try a beta step,
then an eta contraction, then hoisting a let-form out of one of the
node's linear child positions; otherwise recurse left to right.  `step`
defines it, one leftmost-outermost step at a time.  `normalize` makes
the same contractions in the same order but resumes in place after each
one instead of searching again from the root, and its fuel counts those
leftmost-outermost steps.  Let hoisting is one rule over `_HOIST`, a
table of positions built from `syntax.CHILDREN`; it never crosses a
binder or a '!', so no scope side conditions arise.  A let in such a
position that is a beta redex is contracted where it stands, in one
step: hoisting it and then contracting it gives the same term, and no
other redex fires in between, so normal forms do not change.
Unrolling the fixed-point combinator is a separate operation that
`equal` may spend an explicit budget on; `normalize` never unrolls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (CHILDREN, App, BangIntro, Bound, LetBang, LetStar,
                     LetTensor, LinLam, Star, TensorPair, Term, TyApp, TyBound,
                     TyLam, Var, Y, instantiate_tm, instantiate_ty, rebuild,
                     shift, subnodes, uses_bound_tm, uses_bound_ty)


@dataclass
class RewriteConfig:
    fuel: int = 10000
    y_unroll: int = 0
    eta: bool = True

    def __post_init__(self):
        if self.fuel <= 0:
            raise ValueError("fuel must be positive")
        if self.y_unroll < 0:
            raise ValueError("y_unroll must not be negative")


class FuelExhausted(Exception):
    def __init__(self, term: Term, steps: int):
        super().__init__(f"no normal form within {steps} steps")
        self.term = term
        self.steps = steps


class NoYRedex(Exception):
    pass


@dataclass(frozen=True)
class Equal:
    witness: Term


@dataclass(frozen=True)
class NotEqual:
    lhs_nf: Term
    rhs_nf: Term


@dataclass(frozen=True)
class Unknown:
    reason: str  # "fuel" or "yBudget"


EqResult = Equal | NotEqual | Unknown


def _beta(t: Term) -> Term | None:
    if isinstance(t, App) and isinstance(t.fn, LinLam):
        return instantiate_tm(t.fn.body, t.arg)
    if isinstance(t, TyApp) and isinstance(t.fn, TyLam):
        return instantiate_ty(t.fn.body, t.ty)
    if isinstance(t, LetStar) and isinstance(t.scrut, Star):
        return t.body
    if isinstance(t, LetTensor) and isinstance(t.scrut, TensorPair):
        return instantiate_tm(t.body, t.scrut.left, t.scrut.right)
    if isinstance(t, LetBang) and isinstance(t.scrut, BangIntro):
        return instantiate_tm(t.body, t.scrut.body)
    return None


def _eta(t: Term) -> Term | None:
    if (isinstance(t, LinLam) and isinstance(t.body, App)
            and t.body.arg == Bound(0) and not uses_bound_tm(t.body.fn)):
        return shift(t.body.fn, tm_by=-1)
    if (isinstance(t, TyLam) and isinstance(t.body, TyApp)
            and t.body.ty == TyBound(0) and not uses_bound_ty(t.body.fn)):
        return shift(t.body.fn, ty_by=-1)
    if isinstance(t, LetStar) and isinstance(t.body, Star):
        return t.scrut
    if (isinstance(t, LetTensor)
            and t.body == TensorPair(Bound(1), Bound(0))):
        return t.scrut
    if isinstance(t, LetBang) and t.body == BangIntro(Bound(0)):
        return t.scrut
    return None


# The term binders each let-form's body sits under.
_LET_K = {cls: tm for cls in (LetStar, LetTensor, LetBang)
          for name, _, _, tm, _ in CHILDREN[cls] if name == "body"}

# The linear, binder-free positions a let is hoisted out of, in the order
# they are tried; each with the parent's other term children and the
# term binders each sits under, its shift cutoff.
_HOIST = {cls: tuple((pos, tuple((name, tm) for name, sort, _, tm, _
                                 in CHILDREN[cls]
                                 if sort is Term and name != pos))
                     for pos in positions)
          for cls, *positions in ((App, "fn", "arg"), (TyApp, "fn"),
                                  (TensorPair, "left", "right"),
                                  *((let, "scrut") for let in _LET_K))}


def _hoist(t: Term) -> Term | None:
    """Pull a let out of the first position that holds one: its body takes
    that place, the parent's other term children move under its binders,
    and the rebuilt parent becomes its body.  A let that is a beta redex
    is contracted in that place instead, into the term hoisting gives."""
    for pos, siblings in _HOIST.get(type(t), ()):
        let_ = getattr(t, pos)
        k = _LET_K.get(type(let_))
        if k is not None:
            r = _beta(let_)
            if r is not None:
                return rebuild(t, {pos: r})
            changes = {name: shift(getattr(t, name), tm_by=k, md=md)
                       for name, md in siblings}
            changes[pos] = let_.body
            return rebuild(let_, {"body": rebuild(t, changes)})
    return None


# The term-valued children of each term class, in the order the strategy
# visits them; every other class is a leaf.
_KIDS = {cls: tuple(name for name, sort, *_ in kids if sort is Term)
         for cls, kids in CHILDREN.items() if issubclass(cls, Term)}


def _with_child(t: Term, i: int, c: Term) -> Term:
    """`t` with its child number `i` (in `_KIDS` order) replaced by `c`."""
    return rebuild(t, {_KIDS[type(t)][i]: c})


def _first(t: Term, rewrite) -> Term | None:
    """Rewrite the first subterm, in pre-order, for which `rewrite` gives
    a replacement; None if there is none."""
    r = rewrite(t)
    if r is not None:
        return r
    for i, name in enumerate(_KIDS.get(type(t), ())):
        c = _first(getattr(t, name), rewrite)
        if c is not None:
            return _with_child(t, i, c)
    return None


# Classes none of whose nodes is a redex.
_INERT = frozenset({Var, Bound, Star, Y, BangIntro})


def _local(t: Term, eta: bool) -> Term | None:
    """The contractum of a redex at the root of t: beta, eta, then hoisting."""
    if type(t) in _INERT:
        return None
    r = _beta(t)
    if r is None and eta:
        r = _eta(t)
    return _hoist(t) if r is None else r


def step(t: Term, eta: bool = True) -> Term | None:
    """One leftmost-outermost rewrite step, or None if t is normal.

    This is the strategy's definition: the first node in pre-order whose
    own test (`_beta`, then `_eta`, then `_hoist`) succeeds is contracted.
    `normalize` makes the same contractions in the same order.
    """
    return _first(t, lambda x: _local(x, eta))


def _eta_shaped(binder: Term, body: Term) -> bool:
    """A binder whose body applies a function to the bound variable; it
    becomes an eta redex when its function part stops using that variable."""
    if isinstance(binder, LinLam):
        return (isinstance(body, App) and isinstance(body.arg, Bound)
                and body.arg.index == 0)
    return (isinstance(binder, TyLam) and isinstance(body, TyApp)
            and isinstance(body.ty, TyBound) and body.ty.index == 0)


def _climb(frame: list, child: Term) -> Term:
    """The frame's node with `child` in the frame's position, rebuilt only
    if that child changed; the frame keeps the rebuilt node."""
    node, i = frame
    if getattr(node, _KIDS[type(node)][i]) is not child:
        node = frame[0] = _with_child(node, i, child)
    return node


def _plug(path: list[list], t: Term) -> Term:
    for frame in reversed(path):
        t = _climb(frame, t)
    return t


def _retest(path: list[list], anchors: list[int], t: Term,
            eta: bool) -> tuple[Term, Term | None]:
    """After a contraction put `t` at the focus, find the next redex if it
    is an ancestor: the parent and grandparent, whose own tests look at
    most two levels down, and the eta-shaped binders whose function part
    holds the focus.  Outermost first; an ancestor that fires becomes the
    focus.  Otherwise the redex, if any, is at the focus itself."""
    d = len(path)
    cands = [i for i in anchors if i < d - 2]
    cands += [i for i in (d - 2, d - 1) if i >= 0]
    if cands:
        _plug(path[cands[0]:], t)  # the frames keep the rebuilt nodes
        for i in cands:
            node = path[i][0]
            r = _local(node, eta)
            if r is not None:
                del path[i:]
                while anchors and anchors[-1] >= i - 1:
                    anchors.pop()
                return node, r
    return t, _local(t, eta)


def normalize(t: Term, cfg: RewriteConfig | None = None) -> Term:
    """The normal form the `step` loop reaches from t, within cfg.fuel steps.

    The walk resumes in place: it keeps the focus and its ancestors (a
    zipper), so after a contraction only the ancestors whose tests can
    have changed are tested again, and ancestors are rebuilt when the walk
    climbs back up.  Raises FuelExhausted carrying the term after
    cfg.fuel steps if that is not normal.
    """
    cfg = cfg or RewriteConfig()
    eta, fuel = cfg.eta, cfg.fuel
    steps = 0
    path: list[list] = []  # frames [node, i]: the focus is node's child i
    # depths of the eta-shaped binders whose body's function part is on
    # the path
    anchors: list[int] = []
    red = _local(t, eta)
    while True:
        if red is not None:
            if steps == fuel:
                raise FuelExhausted(_plug(path, t), fuel)
            steps += 1
            t, red = _retest(path, anchors, red, eta)
            continue
        kids = _KIDS.get(type(t))
        if kids:
            if eta and path and _eta_shaped(path[-1][0], t):
                anchors.append(len(path) - 1)
            path.append([t, 0])
            t = getattr(t, kids[0])
        else:
            while True:
                if not path:
                    return t
                frame = path[-1]
                if anchors and anchors[-1] == len(path) - 2:
                    anchors.pop()  # the focus leaves the function part
                node = _climb(frame, t)
                i = frame[1] + 1
                kids = _KIDS[type(node)]
                if i < len(kids):
                    frame[1] = i
                    t = getattr(node, kids[i])
                    break
                path.pop()
                t = node
        red = _local(t, eta)


def _is_y_redex(t: Term) -> bool:
    return (isinstance(t, App) and isinstance(t.fn, TyApp)
            and isinstance(t.fn.fn, Y) and isinstance(t.arg, BangIntro))


def unroll_y(t: Term) -> Term:
    """Unfold one outermost `Y [s] (!f)` to `f !(Y [s] (!f))`."""
    out = _first(t, lambda x: App(x.arg.body, BangIntro(x))
                 if _is_y_redex(x) else None)
    if out is None:
        raise NoYRedex("no Y redex to unroll")
    return out


def _contains_y(t: Term) -> bool:
    return any(type(x) is Y for x in subnodes(t))


def _has_y_redex(t: Term) -> bool:
    return any(map(_is_y_redex, subnodes(t)))


def equal(a: Term, b: Term, cfg: RewriteConfig | None = None,
          ctx=None) -> EqResult:
    """Normalize-and-compare, with an optional unrolling budget.

    Equal only when the two sides reach alpha-equal normal forms within
    the budgets; NotEqual only when both normal forms are free of the
    fixed-point combinator; Unknown otherwise.
    """
    cfg = cfg or RewriteConfig()
    if ctx is not None:
        from .typecheck import infer_type
        tya = infer_type(ctx, a).ty
        tyb = infer_type(ctx, b).ty
        if tya != tyb:
            from .pretty import print_type
            from .typecheck import MISMATCH, TypeCheckError
            raise TypeCheckError(
                MISMATCH, "equality query between terms of different types: "
                f"{print_type(tya)} vs {print_type(tyb)}",
                expected=tya, found=tyb)
    try:
        nfa = [normalize(a, cfg)]
        nfb = [normalize(b, cfg)]
    except FuelExhausted:
        return Unknown("fuel")
    if nfa[0] == nfb[0]:
        return Equal(nfa[0])
    try:
        for _ in range(cfg.y_unroll):
            na, nb = len(nfa), len(nfb)
            if _has_y_redex(nfa[-1]):
                nfa.append(normalize(unroll_y(nfa[-1]), cfg))
            if _has_y_redex(nfb[-1]):
                nfb.append(normalize(unroll_y(nfb[-1]), cfg))
            if len(nfa) == na and len(nfb) == nb:
                break
            # The witness is the first x in nfa equal to some y in nfb.
            # Pairs compared in earlier rounds all differ, so an old x can
            # only equal a new y.
            wit = next((x for i, x in enumerate(nfa)
                        if x in (nfb if i >= na else nfb[nb:])), None)
            if wit is not None:
                return Equal(wit)
    except FuelExhausted:
        return Unknown("fuel")
    if _contains_y(nfa[-1]) or _contains_y(nfb[-1]):
        return Unknown("yBudget")
    return NotEqual(nfa[-1], nfb[-1])
