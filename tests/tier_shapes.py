"""Random programs in the shapes that the generated tier treats apart
from the closures, for a differential test of the two tiers.

`gen_program`'s corpus reaches few of these shapes. Here each program
declares one function `g` whose body mixes:

- `let !` of ints and of boxes, taken from the sides of its argument,
  from literal bangs, from computed ones and from a call that returns
  the bang its own `let !` took apart (`same`);
- `mif` and `mcase`, so that the returns end branches of 0 to 3 events;
- `!x` of `let !`-bound names, which both tiers answer with the bang
  `let !` took apart, fed through the literal bangs of `main`;
- applications of captured functions (`id`, `same`, a nested `mfun`),
  `keyof` and `unbox`, and now and then a term that is stuck at run time.

`main` applies `g` three times, twice to the same argument, so that some
returns hit.
"""

from __future__ import annotations

import random

PRELUDE = (
    "val id = mfun i (n : !int) : int is let !m = n in return m end end\n"
    "val same = mfun s (n : !(int box)) : !(int box) is let !m = n in return (!m) end end\n"
    "val b = box 2\n"
)

MAX_EVENTS = 3


class _Body:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0

    def fresh(self, stem: str) -> str:
        self.n += 1
        return f"{stem}{self.n}"

    def term(self, ints: list, boxes: list, depth: int) -> str:
        """An int term over the `let !`-bound ints and boxes."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            if ints and rng.random() < 0.6:
                return rng.choice(ints)
            return str(rng.randrange(6))
        sub = lambda: self.term(ints, boxes, depth - 1)  # noqa: E731
        choices = ["op", "op", "if"]
        if ints:
            choices += ["id", "id", "nested"]
        if boxes:
            choices += ["keyof", "unbox"]
        if rng.random() < 0.01:
            choices = ["stuck"]
        kind = rng.choice(choices)
        if kind == "op":
            return f"({sub()} {rng.choice(['+', '-', '*', '<', '==', '<='])} {sub()})"
        if kind == "if":
            return f"(if {sub()} then {sub()} else {sub()})"
        if kind == "id":
            arg = rng.choice(ints) if rng.random() < 0.7 else f"({sub()})"
            return f"id (!{arg})"
        if kind == "nested":
            x = rng.choice(ints)
            return (f"(mfun h (b : !int) : int is let !z = b in return z + {x} end end) "
                    f"(!{rng.choice(ints)})")
        if kind == "keyof" or kind == "unbox":
            return f"({kind} {rng.choice(boxes)})"
        # an int read as a box, or a box added to an int
        return rng.choice([f"(keyof {rng.choice(ints or ['1'])})",
                           f"({rng.choice(boxes or ['1'])} + 1)"])

    def result(self, ints: list, boxes: list, bang: bool) -> str:
        if not bang:
            return self.term(ints, boxes, 3)
        if ints and self.rng.random() < 0.7:
            return f"(!{self.rng.choice(ints)})"
        return f"(!({self.term(ints, boxes, 2)}))"

    def expr(self, sides: list, ints: list, boxes: list, events: int, bang: bool) -> str:
        """An expression whose every path ends in a return."""
        rng = self.rng
        if events >= MAX_EVENTS or rng.random() < 0.2:
            return f"return {self.result(ints, boxes, bang)}"
        kind = rng.choice(["let", "let", "let", "mif", "mcase"])
        if kind == "let":
            if sides and rng.random() < 0.5:
                side, is_box = sides[rng.randrange(len(sides))]
                scrut = side
            elif boxes and rng.random() < 0.3:
                is_box = True
                scrut = f"same (!{rng.choice(boxes)})"
            else:
                is_box = rng.random() < 0.4
                inner = self.term(ints, boxes, 1)
                scrut = f"(!(box {inner}))" if is_box else rng.choice([f"(!{inner})", "(!7)"])
            name = self.fresh("y" if is_box else "x")
            body = self.expr(sides, ints + ([] if is_box else [name]),
                             boxes + ([name] if is_box else []), events + 1, bang)
            return f"let !{name} = {scrut} in {body} end"
        test = self.term(ints, boxes, 2)
        left = self.expr(sides, ints, boxes, events + 1, bang)
        right = self.expr(sides, ints, boxes, events + 1, bang)
        if kind == "mif":
            return f"mif {test} then {left} else {right} end"
        u, v = self.fresh("u"), self.fresh("v")
        return f"mcase int2sum {test} of inl {u} => {left} | inr {v} => {right} end"


def tier_program(seed) -> str:
    """The source of one program; `seed` seeds its random choices."""
    rng = random.Random(f"tier-shapes:{seed}")
    gen = _Body(rng)
    bang = rng.random() < 0.3
    body = gen.expr([("p", False), ("q", True)], [], [], 0, bang)
    res = "!int" if bang else "int"
    args = [f"((!{rng.randrange(5)}), (!{rng.choice(['b', f'(box {rng.randrange(5)})'])}))"
            for _ in range(2)]
    return (PRELUDE
            + f"val g = mfun f (a : !int * !(int box)) : {res} is "
              f"let* (p, q) = a in {body} end end\n"
            + f"main (g ({args[0]}), (g ({args[1]}), g ({args[0]})))\n")
