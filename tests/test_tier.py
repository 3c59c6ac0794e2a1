"""The generated tier: when a site switches to it, that every value of
the site follows, that it calls the memo store through `eval_memo`'s
globals, that it charges what the closures charge, that it is written
from static types and entered only with values of them, and that a
later compile of an equal typed function term reuses its site, from a
bounded table that threads share.

Only typechecked bodies are generated, so every program that typechecks
is checked before it runs here."""

import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from support import mutant
from tier_shapes import tier_program
import mfl.eval_memo as eval_memo
import mfl.memostore as memostore
import mfl.tier as tier
from mfl.corpus import decode_int_list, load
from mfl.errors import InternalInvariantError, MflError, MflTypeError, Stuck
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.memostore import Store
from mfl.parser import parse
from mfl.syntax import (
    INT, UNIT, Apply, Bang, BoxVal, Inr, IntLit, LetBang, MFun, MFunVal, Pair, PrimOp,
    Program, Res, Return, Roll, TBang, Unbox, UnitLit, Var, type_eq,
)
from mfl.typecheck import check_program

GENERATED = "<mfl generated body>"
DEFAULT_HOT_CALLS = eval_memo.HOT_CALLS


@pytest.fixture
def hot(monkeypatch):
    """Set `HOT_CALLS`, with no generated site kept for reuse. Returns a
    list, emptied by each call, of the sites that have switched tiers
    since: generated or, if their bodies could not be generated, left on
    the closures. Each call also forgets the generated sites, so a later
    compile switches its own."""
    monkeypatch.setattr(eval_memo, "_hot_sites", {})
    made, generate = [], tier.generate

    def recording(site):
        made.append(site)
        return generate(site)

    monkeypatch.setattr(tier, "generate", recording)

    def set_hot(n: int) -> list:
        monkeypatch.setattr(eval_memo, "HOT_CALLS", n)
        monkeypatch.setattr(eval_memo, "_hot_sites", {})
        made.clear()
        return made
    return set_hot


def _site(value):
    return value.code[0]


def _is_generated(site) -> bool:
    return site.hot and site.run.__code__.co_filename == GENERATED


def _on_closures(site) -> bool:
    """Whether every policy runs the site's closures: its body is not
    generated, and generated callers reach them through the adapter."""
    return not site.hot and site.run is eval_memo._cold_entry


def _typed(program: Program) -> Program:
    """`program`, typechecked if it typechecks."""
    try:
        check_program(program)
    except MflTypeError:
        pass
    return program


def _parse(src: str) -> Program:
    return _typed(parse(src))


def _load(name: str) -> Program:
    return _typed(load(name))


def _outcome(program: Program, **kw):
    """The value or error of a run, with its counters."""
    cfg = EvalConfig(**kw)
    try:
        result = run_program(program, cfg)
        out = repr(result.value)
    except MflError as exc:
        out = f"{type(exc).__name__}: {exc}"
    return out, cfg.stats.as_dict(), dict(cfg.stats.per_table)


def test_hot_site_inserts_through_the_module_global(hot):
    hot(0)
    real = run_program(_load("fib"), EvalConfig())
    assert _is_generated(_site(real.decl_values["mfib"]))
    assert any(map(len, real.store.tables.values()))
    with mutant("skip_insert"):
        skipped = run_program(_load("fib"), EvalConfig())
    assert _is_generated(_site(skipped.decl_values["mfib"]))
    assert all(len(table) == 0 for table in skipped.store.tables.values())
    assert skipped.stats.memo_hits == 0


def test_hot_site_looks_up_through_the_module_global(hot, monkeypatch):
    # a wrapper on `eval_memo.mt_lookup`, as perfbench's tracer installs
    # one, sees every lookup, so the generated code calls it and does not
    # walk the table inline
    hot(0)
    calls = []

    def counted(*args):
        calls.append(args)
        return memostore.mt_lookup(*args)

    monkeypatch.setattr(eval_memo, "mt_lookup", counted)
    result = run_program(_load("fib"), EvalConfig())
    assert _is_generated(_site(result.decl_values["mfib"]))
    assert result.stats.returns > 0
    assert len(calls) == result.stats.returns


def test_value_made_while_cold_runs_the_generated_code(hot):
    hot(4)
    program = _load("quicksort")
    cfg, store = EvalConfig(), Store()
    decls = run_program(Program(program.decls, UnitLit()), cfg, store).decl_values
    hcons, mqs = decls["hcons"], decls["mqs"]
    site = _site(mqs)
    assert not _is_generated(site)  # made before any activation

    def cons(key, tail):
        return eval_term(store, Apply(hcons, Pair(Bang(IntLit(key)), Bang(tail))), cfg)[0]

    def sort(lst):
        return decode_int_list(eval_term(store, Apply(mqs, Bang(lst)), cfg)[0], store.boxes)

    lst = decls["empty"]
    for key in (5, 3, 8, 1, 9, 2):
        lst = cons(key, lst)
    assert sort(lst) == [1, 2, 3, 5, 8, 9]
    assert _is_generated(site) and _is_generated(_site(hcons))
    generated, calls = site.run, []

    def counted(*args):
        calls.append(args[0])
        return generated(*args)

    site.run = counted
    assert sort(cons(4, lst)) == [1, 2, 3, 4, 5, 8, 9]
    assert calls and all(fn is mqs for fn in calls)


def test_depth_exceeded_in_generated_code_charges_as_the_closures(hot):
    # `down (!n)` is n + 1 applications deep: at the limit of 40, 40 run
    # and 41 raise, with the closures' counters on both tiers
    src = ("val down = mfun f (a : !int) : int is let !n = a in "
           "return (if n == 0 then 0 else f (!(n - 1))) end end "
           "main down (!{})")
    too_deep = "DepthExceeded: application depth exceeded 40"
    for n, out in ((39, "IntLit(value=0,"), (40, too_deep), (100, too_deep)):
        hot(10 ** 9)
        cold = _outcome(_parse(src.format(n)), depth_limit=40)
        made = hot(0)
        generated = _outcome(_parse(src.format(n)), depth_limit=40)
        assert cold[0].startswith(out)
        assert generated == cold and any(map(_is_generated, made))


def test_body_past_the_nesting_cap_stays_on_closures(hot):
    depth = tier.MAX_DEPTH + 5
    body = "x"
    for _ in range(depth):
        body = f"(1 + {body})"
    src = (f"val deep = mfun f (a : !int) : int is let !x = a in return {body} end end "
           "main deep (!1) + deep (!2)")
    hot(10 ** 9)
    cold = _outcome(_parse(src))
    hot(0)
    result = run_program(_parse(src), EvalConfig())
    site = _site(result.decl_values["deep"])
    assert site.left == 0 and _on_closures(site)
    assert _outcome(_parse(src)) == cold
    assert cold[0] == repr(IntLit(2 * depth + 3))


@pytest.mark.parametrize("body", [
    PrimOp("+", (Var("x"), Var("y"))),
    PrimOp("xor", (Var("x"), IntLit(1))),
], ids=["free-variable", "operator-with-no-rule"])
def test_stuck_body_stays_on_closures(hot, body):
    # only an untypechecked body reaches a free name or an operator with
    # no rule; it is stuck, and the closures raise the error
    hot(0)
    fun = MFun("f", "a", TBang(INT), INT, LetBang("x", None, Res("a"), Return(body)))
    cfg, store = EvalConfig(), Store()
    g = run_program(Program([("g", fun)], UnitLit()), cfg, store).decl_values["g"]
    with pytest.raises(Stuck):
        eval_term(store, Apply(g, Bang(IntLit(4))), cfg)
    site = _site(g)
    assert site.left == 0  # the site has switched
    assert _on_closures(site)


_BODY = ("val g = mfun f (a : !int) : int is let !x = a in return {body} end end "
         "main {main}")
# a `let !`-bound box read twice, with the type test of a captured
# function's application between the reads; the last case tests a pair
# between a `let !` binder's event and its read
_BOXED = ("val id = mfun i (n : !int) : int is let !m = n in return m end end "
          "val g = mfun f (a' : !(int box)) : int is "
          "let !a = a' in return ({read} a + id (!({read} a))) end end "
          "main g (!(box 3)) + g (!(box 4))")


@pytest.mark.parametrize("src", [
    _BODY.format(body="keyof (box x)", main="g (!4) + g (!5)"),
    _BODY.format(body="case unroll (roll [rec u . int + u] (inl [int + (rec u . int + u)] x)) "
                      "of inl y => y | inr z => 0 end", main="g (!4)"),
    _BODY.format(body="100 div x", main="g (!4) + g (!7)"),
    _BODY.format(body="100 div x", main="g (!4) + g (!0)"),
    _BODY.format(body="if x - 3 then 10 else 20", main="g (!3) + g (!4)"),
    _BODY.format(body="case int2sum x of inl u => 1 | inr v => 2 end", main="g (!0) + g (!4)"),
    "val y = 5 " + _BODY.format(body="x + y", main="g (!4)"),
    _BODY.format(body="x (3)", main="g (!4)"),
    _BODY.format(body="(mfun h (b : !int) : int is let !y = b in return x + y end end) (!x)",
                 main="g (!3) + g (!4)"),
    "val g = mfun f (a : !int) : int is let !x = a in "
    "mif x < 3 then return 1 else return 2 end end end main g (!1) + g (!5)",
    _BOXED.format(read="keyof"),
    _BOXED.format(read="unbox"),
    "val g = mfun f (p : !(int box) * (int * int)) : int is let* (a', q) = p in "
    "let !a = a' in let* (u, v) = q in return (keyof a) end end end end "
    "main g ((!(box 3), (1, 2))) + g ((!(box 4), (1, 2)))",
], ids=["keyof", "unroll", "div", "div-by-zero", "if-on-a-sum", "int2sum-of-a-name",
        "free-variable", "apply-an-int", "nested-capture", "mif",
        "keyof-across-a-call", "unbox-across-a-call", "keyof-after-a-let-star"])
def test_generated_code_agrees_with_the_closures(hot, src):
    # operators and shapes that the generated corpus and golden programs
    # reach rarely or never; an ill-typed body stays on the closures
    hot(10 ** 9)
    cold = _outcome(_parse(src))
    made = hot(0)
    program = _parse(src)
    assert _outcome(program) == cold
    assert any(map(_is_generated, made)) is (program.ty is not None)


def _identity_plus(k: int) -> str:
    return (f"val g = mfun f (a : !int) : int is let !x = a in return x + {k} end end "
            "main g (!3)")


def test_tier_shapes_agree_with_the_closures(hot):
    # bodies that mix `let !` of ints and boxes, `mif`/`mcase`, `!x` of
    # `let !`-bound names, captured functions, `keyof` and `unbox`
    typed = 0
    for seed in range(300):
        src = tier_program(seed)
        hot(10 ** 9)
        cold = _outcome(_parse(src))
        made = hot(0)
        program = _parse(src)
        assert _outcome(program) == cold, src
        if program.ty is not None:
            typed += 1
            assert any(map(_is_generated, made)), src
    assert typed > 250


@pytest.mark.parametrize("name", ["quicksort", "knapsack"])
def test_hot_bodies_are_written_from_their_types(hot, name):
    # every hot body of a typechecked corpus program is generated, with
    # constant read charges, no stuck path or type register, no shared
    # depth to restore, and one handler, which adds the pending charges
    # and re-raises; the same program unchecked stays on the closures
    made = hot(0)
    run_program(_load(name), EvalConfig())
    assert made and all(map(_is_generated, made))
    for src in (tier._Gen(site).source() for site in made):
        assert "Stuck(" not in src and "_lookup_steps" not in src and "t=type(" not in src
        assert not re.search(r"cfg\.depth\b", src) and "finally:" not in src
        assert src.count("try:") == src.count("except MflError:") == 1
        assert src.endswith(";raise\n return run\n")
    made = hot(0)
    run_program(load(name), EvalConfig())
    assert made and all(map(_on_closures, made))


_UNCHECKED = "val f = mfun f (a : !int) : int is let !x = a in return x end end main 0"
_KEYS = (5, 3, 8, 1, 9)


def _boundary_run(case: str) -> tuple:
    """Apply corpus quicksort's functions through `eval_term`, first to
    well-typed lists, then to the ill-typed arguments of `case`, then once
    more to a well-typed list on the same store. Returns each call's
    value or error, and the counters at the end."""
    program = _load("quicksort")
    cfg, store = EvalConfig(), Store()
    decls = run_program(Program(program.decls, UnitLit()), cfg, store).decl_values
    hcons, mqs, empty = decls["hcons"], decls["mqs"], decls["empty"]
    outcomes = []

    def call(fn, arg):
        try:
            v = eval_term(store, Apply(fn, arg), cfg)[0]
            outcomes.append(repr(v))
            return v
        except MflError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
            return None

    lst = empty
    for key in _KEYS:
        lst = call(hcons, Pair(Bang(IntLit(key)), Bang(lst)))
    call(mqs, Bang(lst))
    # an int index where a box's is expected, under every key: hcons's
    # table then holds lists with an int for a tail under the branches
    # that the sort's own conses onto the empty list take
    poison = [(hcons, Pair(Bang(IntLit(key)), Bang(IntLit(empty.tag)))) for key in _KEYS]
    # a box of a list cell whose tail is an int
    cell = Roll(Inr(Pair(IntLit(4), IntLit(empty.tag)), UNIT, UNIT), UNIT)
    nocode = MFunVal(mqs.loc, mqs.fname, mqs.arg, mqs.arg_type, mqs.res_type, mqs.body)
    if case == "int-for-a-bang":
        bad = [(mqs, IntLit(3)), (hcons, Pair(IntLit(1), Bang(lst)))]
    elif case == "int-for-a-box":
        bad = poison
    elif case == "box-of-a-wrong-shape":
        box = store.alloc_box(cell)
        bad = [(mqs, Bang(box)), (hcons, Pair(Bang(IntLit(7)), Bang(box)))]
    elif case == "unchecked-function":
        f = run_program(parse(_UNCHECKED), cfg, store).decl_values["f"]
        bad = [(mqs, Bang(f)), (mqs, Bang(store.alloc_box(f))),
               (hcons, Pair(Bang(IntLit(2)), Bang(f)))] + poison[:1]
    elif case == "function-without-code":
        bad = [(nocode, Bang(lst)), (hcons, Pair(Bang(IntLit(2)), Bang(nocode)))] + poison[:1]
    else:
        bad = []
    for fn, arg in bad:
        v = call(fn, arg)
        if fn is hcons and v is not None:
            call(mqs, Bang(v))  # sort the ill-typed list hcons made
    call(mqs, Bang(call(hcons, Pair(Bang(IntLit(6)), Bang(lst)))))
    call(mqs, Bang(lst))
    return outcomes, cfg.stats.as_dict(), dict(cfg.stats.per_table)


@pytest.mark.parametrize("case", ["well-typed", "int-for-a-bang", "int-for-a-box",
                                  "box-of-a-wrong-shape", "unchecked-function",
                                  "function-without-code"])
def test_ill_typed_arguments_get_what_the_closures_give(hot, case):
    # typed bodies applied by untyped code to values not of their type,
    # and then to well-typed ones on the same store: every tier gives the
    # value or error of the closures, with their counters
    hot(DEFAULT_HOT_CALLS)
    default = _boundary_run(case)
    hot(0)
    assert _boundary_run(case) == default



def test_a_failed_check_leaves_the_function_and_program_untyped(hot):
    # a program that passed, changed so that a body no longer passes and
    # checked again, keeps none of the types its first check left on the
    # function and program, whatever binders the failed check typed
    program = _parse(_identity_plus(1))
    fun = program.decls[0][1]
    assert fun.ctx is not None and program.ty is not None
    fun.body.body.body = PrimOp("+", (Var("x"), Var("y")))
    with pytest.raises(MflTypeError):
        check_program(program)
    assert fun.ctx is None and program.ty is None
    made = hot(0)
    assert _outcome(program)[0] == "Stuck: free variable 'y' at run time"
    assert made and all(map(_on_closures, made))


def _decl_sites(result) -> dict:
    return {name: _site(v) for name, v in result.decl_values.items() if type(v) is MFunVal}


@pytest.mark.parametrize("name", ["quicksort", "knapsack"])
def test_a_later_compile_reuses_the_generated_sites(hot, name):
    # the program parsed and checked afresh gets the sites its first
    # compile generated: the same objects, which run generated code from
    # their first activation, with the value and counters of a compile
    # that reuses nothing
    made = hot(4)
    first = _decl_sites(run_program(_load(name), EvalConfig()))
    generated = list(made)
    assert generated and all(map(_is_generated, generated))
    made.clear()
    cfg = EvalConfig()
    result = run_program(_load(name), cfg)
    assert made == []
    again = _decl_sites(result)
    assert any(site in generated for site in first.values())
    for decl, site in first.items():
        assert (again[decl] is site) is (site in generated), decl
    hot(4)
    assert _outcome(_load(name)) == (repr(result.value), cfg.stats.as_dict(),
                                     dict(cfg.stats.per_table))


_TAKES = "val g = mfun f (a : !{}) : int is let !x = a in return 1 end end main g (!{})"
_CAPTURES_Y = ("val y = {} val g = mfun f (a : !int) : int is let !x = a in "
               "return x + keyof y end end main g (!3) + g (!4)")


@pytest.mark.parametrize("first, again, typed, hot_calls", [
    (_identity_plus(1), _identity_plus(2), True, 0),
    (_TAKES.format("int", "3"), _TAKES.format("unit", "()"), True, 0),
    (_CAPTURES_Y.format("box 55"), _CAPTURES_Y.format("box ()"), True, 0),
    (_CAPTURES_Y.format("box 55"), _CAPTURES_Y.format("box 55"), False, 0),
    (_CAPTURES_Y.format("box 55"), _CAPTURES_Y.format("box 55"), True, 1),
], ids=["another-literal", "another-function-type", "captured-of-another-type", "untyped",
        "another-hot-calls"])
def test_a_compile_that_differs_gets_a_site_of_its_own(hot, monkeypatch, first, again,
                                                       typed, hot_calls):
    # a body that differs in a literal, an equal body of a function of
    # another type, a captured name of another type, an unchecked program
    # and another switch point: none gets the site that an earlier
    # compile generated
    made = hot(0)
    site = _site(run_program(_parse(first), EvalConfig()).decl_values["g"])
    assert made == [site] and _is_generated(site)
    made.clear()
    monkeypatch.setattr(eval_memo, "HOT_CALLS", hot_calls)
    program = _parse(again) if typed else parse(again)
    result = run_program(program, EvalConfig())
    other = _site(result.decl_values["g"])
    assert other is not site and made == [other]
    assert _is_generated(other) is typed


def test_generated_sites_kept_for_reuse_are_bounded(hot, monkeypatch):
    # the table of generated sites holds `HOT_SITES` of them and drops
    # the oldest beyond that
    monkeypatch.setattr(eval_memo, "HOT_SITES", 2)
    hot(0)
    for k in range(5):
        src = (f"val g = mfun f{k} (a : !int) : int is let !x = a in return x + {k} end end "
               "main g (!3)")
        assert _outcome(_parse(src))[0] == repr(IntLit(3 + k))
        assert len(eval_memo._hot_sites) == min(k + 1, 2)
    assert [key[0] for key in eval_memo._hot_sites] == ["f3", "f4"]


def test_threads_share_the_bounded_site_table(hot):
    # eight threads turn distinct bodies hot at once, switching every
    # microsecond: `_promote` evicts and inserts under its lock, so no
    # thread raises and the table stays within its bound
    hot(0)

    def run(t: int) -> list:
        return [_outcome(_parse(f"val g = mfun f{t}_{k} (a : !int) : int is "
                                f"let !x = a in return x + {k} end end main g (!3)"))[0]
                for k in range(400)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            outs = list(pool.map(run, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert outs == [[repr(IntLit(3 + k)) for k in range(400)]] * 8
    assert len(eval_memo._hot_sites) <= eval_memo.HOT_SITES


def test_a_compile_under_a_mutant_gets_a_site_of_its_own(hot):
    # a site generated with the inline memo walk is not reused while a
    # mutant replaces `mt_insert`, which then sees every insert
    made = hot(0)
    real = run_program(_load("quicksort"), EvalConfig())
    assert any(map(len, real.store.tables.values()))
    generated = list(made)
    made.clear()
    with mutant("skip_insert"):
        skipped = run_program(_load("quicksort"), EvalConfig())
    sites = _decl_sites(skipped).values()
    assert made and all(_is_generated(site) and site not in generated for site in sites)
    assert all(len(table) == 0 for table in skipped.store.tables.values())
    assert skipped.stats.memo_hits == 0


def test_an_ill_typed_store_runs_a_reused_sites_closures(hot):
    made = hot(0)
    program = _load("quicksort")
    run_program(program, EvalConfig())
    cfg, store = EvalConfig(), Store()
    decls = run_program(Program(_load("quicksort").decls, UnitLit()), cfg, store).decl_values
    hcons, mqs = decls["hcons"], decls["mqs"]
    site = _site(mqs)
    assert made and site in made and _is_generated(site)
    calls = []

    def counted(*args):
        calls.append(args)
        return generated(*args)

    generated, site.run = site.run, counted
    lst = decls["empty"]
    for key in (5, 3, 8):
        lst = eval_term(store, Apply(hcons, Pair(Bang(IntLit(key)), Bang(lst))), cfg)[0]
    assert decode_int_list(eval_term(store, Apply(mqs, Bang(lst)), cfg)[0],
                           store.boxes) == [3, 5, 8]
    assert calls
    calls.clear()
    with pytest.raises(Stuck):
        eval_term(store, Apply(mqs, IntLit(3)), cfg)  # an int for a bang
    assert store.ill_typed
    assert decode_int_list(eval_term(store, Apply(mqs, Bang(lst)), cfg)[0],
                           store.boxes) == [3, 5, 8]
    assert calls == []


def test_a_box_a_typed_body_returns_to_untyped_code_fits_its_type(hot_calls):
    # a list cell `hcons` returns through `eval_term` is known to fit its
    # result type, so the check of the next cons stops at it; on an
    # ill-typed store nothing is recorded
    for ill_typed in (False, True):
        program = _load("quicksort")
        cfg, store = EvalConfig(), Store()
        decls = run_program(Program(program.decls, UnitLit()), cfg, store).decl_values
        hcons = decls["hcons"]
        store.ill_typed = ill_typed
        cell = eval_term(store, Apply(hcons, Pair(Bang(IntLit(1)), Bang(decls["empty"]))),
                         cfg)[0]
        assert type(cell) is BoxVal
        if ill_typed:
            assert cell.tag not in store.fits
        else:
            assert type_eq(store.fits[cell.tag], _site(hcons).ty.res.item)


@pytest.mark.parametrize("name", ["quicksort", "knapsack"])
def test_counters_at_every_depth_limit_are_the_closures(hot, name):
    # each limit below the run's maximum depth raises at another
    # application, with charges pending on the generated tier: the error,
    # its message and the counters are the closures'
    limit = 1
    while True:
        hot(10 ** 9)
        cold = _outcome(_load(name), depth_limit=limit)
        made = hot(0)
        assert _outcome(_load(name), depth_limit=limit) == cold, limit
        assert any(map(_is_generated, made))
        if not cold[0].startswith("DepthExceeded"):
            break
        limit += 1
    assert limit > 3


def test_counters_at_a_division_by_zero_after_calls_are_the_closures(hot):
    # the division raises after two calls on its path, one of them in an
    # arm of an `if` that charges more than the other
    src = ("val id = mfun i (n : !int) : int is let !m = n in return m end end "
           "val g = mfun f (a : !int) : int is let !x = a in "
           "return (id (!x) + (if x - 3 then id (!1) + 2 else id (!2)) + 100 div (x - 3)) end end "
           "main g (!4) + g (!3)")
    hot(10 ** 9)
    cold = _outcome(_parse(src))
    assert cold[0] == "DivisionByZero: div by zero"
    for n in (0, 1):
        made = hot(n)
        assert _outcome(_parse(src)) == cold
        assert any(map(_is_generated, made))


def test_a_compile_under_other_wrappers_reuses_the_site_and_calls_them(hot, monkeypatch):
    # a site generated while wrappers replace `mt_lookup` and `mt_insert`
    # calls whatever the module's globals hold when it runs, so a later
    # compile under another pair reuses it, and that pair sees every
    # lookup and insert
    made = hot(0)
    runs = []
    for _ in range(2):
        calls = {"lookup": 0, "insert": 0}

        def lookup(*args, calls=calls):
            calls["lookup"] += 1
            return memostore.mt_lookup(*args)

        def insert(*args, calls=calls, **kwargs):
            calls["insert"] += 1
            return memostore.mt_insert(*args, **kwargs)

        monkeypatch.setattr(eval_memo, "mt_lookup", lookup)
        monkeypatch.setattr(eval_memo, "mt_insert", insert)
        result = run_program(_load("quicksort"), EvalConfig())
        runs.append((_decl_sites(result), list(made), calls, result.stats))
        made.clear()
    (first, generated, _, _), (again, regenerated, calls, stats) = runs
    assert generated and all(map(_is_generated, generated)) and regenerated == []
    assert any(site in generated for site in first.values())
    assert all(again[decl] is site for decl, site in first.items() if site in generated)
    assert calls == {"lookup": stats.returns, "insert": stats.memo_misses}


def test_a_function_value_walks_its_own_table_in_another_store(hot):
    # `g`, made in one store, applied in another: each return walks and
    # counts into `g`'s own table, under the config that runs it, on
    # either tier; the other store's table at `g`'s location is not read
    src = "val g = mfun f (a : !int) : int is let !x = a in return x + 1 end end main 0"
    outcomes = []
    for n in (10 ** 9, 0):
        made = hot(n)
        home = EvalConfig()
        g = run_program(_parse(src), home).decl_values["g"]
        for other in (Store(), run_program(_parse(src), EvalConfig()).store):
            cfg, before = EvalConfig(), dict(other.tables)
            values = [repr(eval_term(other, Apply(g, Bang(IntLit(k))), cfg)[0]) for k in (4, 4, 5)]
            assert values == [repr(IntLit(5))] * 2 + [repr(IntLit(6))]
            assert other.tables == before and all(len(t) == 0 for t in other.tables.values())
            outcomes.append((n, values, cfg.stats.as_dict(), cfg.stats.per_table))
        assert home.stats.returns == 0 and home.stats.per_table == {}
        assert len(g.table) == 2
        assert any(map(_is_generated, made)) == (n == 0)
    closures, generated = outcomes[:2], outcomes[2:]
    assert [out[1:] for out in closures] == [out[1:] for out in generated]
    assert closures[0][3] == {g.loc: [1, 2]}


@pytest.mark.parametrize("hot_calls", [DEFAULT_HOT_CALLS, 0], ids=["default", "hot0"])
def test_a_box_of_another_store_is_an_invariant_error(hot, hot_calls):
    # unboxing a box whose tag the running store never allocated raises
    # the typed error, in every mode, after the same charges; given to a
    # typed body, the box does not fit, so the store is marked ill-typed
    # and the closures run, not the generated code
    hot(hot_calls)
    src = ("val b = box 3 val g = mfun f (a : !(int box)) : int is "
           "let !x = a in return unbox x end end main 0")
    result = run_program(_parse(src), EvalConfig())
    b, g = result.decl_values["b"], result.decl_values["g"]
    message = f"box value refers to unallocated tag {b.tag}"
    for mode in ({}, {"mode": "cold"}, {"checked": True}, {"mode": "pure"}):
        cfg = EvalConfig(**mode)
        with pytest.raises(InternalInvariantError, match=message):
            eval_term(Store(), Unbox(b), cfg)
        assert cfg.stats.steps == 2
    cfg, store = EvalConfig(), Store()
    with pytest.raises(InternalInvariantError, match=message):
        eval_term(store, Apply(g, Bang(b)), cfg)
    assert store.ill_typed
    assert _is_generated(_site(g)) is (hot_calls == 0)
    assert (cfg.stats.steps, cfg.stats.memo_misses, cfg.stats.probes) == (10, 1, 2)
