"""The kernel suite run by `run-plain` and `run-linked`.

Each kernel is a small mklang program plus a plain-Python reference that
computes its expected output; the expected output never comes from
mklang. The seed picks literal arrays, the `Random` seed and generated
classes, never the amount of work: every variant of a kernel runs the
same loops the same number of times.

A program is split into `classes` (class definitions) and `main` (the
top-level statements). `run-plain` runs `classes + main` in one
`Interpreter.run` call, as `mklang run` does; `run-linked` loads the
classes, installs its link set, then runs `main`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gen


@dataclass(frozen=True)
class Program:
    kernel: str
    classes: str
    main: str
    seed: int            # Interpreter(seed): the stream `Random new next` reads
    expected: str        # output computed by the Python reference
    hot: tuple           # (class, selector) of the method doing most work
    helper: tuple        # (class, selector) of a leaf method (no user sends)
    watched: tuple       # (class, slot) written in the hot method's class
    armed: str           # class whose first instance gets object-centric links

    @property
    def source(self):
        return self.classes + "\n" + self.main


def _lit_array(values):
    return "#(%s)" % " ".join(str(v) for v in values)


# -- recursive fib: sends and local ^ ---------------------------------------

FIB_N = 10

FIB_CLASSES = """\
class FibK [ | calls base0 base1 |
    initialize [ calls := 0. base0 := 0. base1 := 1 ]
    base0: a base1: b [ base0 := a. base1 := b ]
    leaf: n [ ^ base1 - base0 * n + base0 ]
    fib: n [ | r |
        calls := calls + 1.
        r := n < 2
            ifTrue: [ self leaf: n ]
            ifFalse: [ (self fib: n - 1) + (self fib: n - 2) ].
        ^ r ]
    calls [ ^ calls ]
]"""


def fib(rng):
    pairs = [rng.randrange(10) for _ in range(4)]
    main = """\
| f ps |
f := FibK new.
ps := %s.
1 to: 2 do: [:k |
    f base0: (ps at: k * 2 - 1) base1: (ps at: k * 2).
    (f fib: %d) logCr ].
f calls logCr.
""" % (_lit_array(pairs), FIB_N)

    calls = [0]

    def counted(n, a, b):
        calls[0] += 1
        if n < 2:
            return (b - a) * n + a
        return counted(n - 1, a, b) + counted(n - 2, a, b)

    out = []
    for k in range(2):
        out.append(counted(FIB_N, pairs[2 * k], pairs[2 * k + 1]))
    out.append(calls[0])
    return Program("fib", FIB_CLASSES, main, rng.randrange(2 ** 31),
                   "".join("%d\n" % v for v in out),
                   ("FibK", "fib:"), ("FibK", "leaf:"), ("FibK", "calls"),
                   "FibK")


# -- n-queens: non-local ^ out of a to:do: block, block calls ---------------

QUEENS_N = 5

QUEENS_CLASSES = """\
class Queens [ | rows n solutions weighted w |
    initialize [ rows := OrderedCollection new. solutions := 0. weighted := 0 ]
    size: k weights: ws [ n := k. w := ws. n timesRepeat: [ rows add: 0 ] ]
    safe: r col: c [ | q |
        1 to: c - 1 do: [:j |
            q := rows at: j.
            (q = r or: [ (q - r) abs = (c - j) ]) ifTrue: [ ^ false ] ].
        ^ true ]
    place: c [
        c > n ifTrue: [ ^ self record ].
        1 to: n do: [:r |
            (self safe: r col: c) ifTrue: [
                rows at: c put: r.
                self place: c + 1 ] ] ]
    record [
        solutions := solutions + 1.
        1 to: n do: [:j |
            weighted := weighted + ((w at: j) * (rows at: j)) \\\\ 10007 ] ]
    solutions [ ^ solutions ]
    weighted [ ^ weighted ]
]"""


def queens(rng):
    weights = [rng.randrange(1, 100) for _ in range(QUEENS_N)]
    main = """\
| qs |
qs := Queens new.
qs size: %d weights: %s.
qs place: 1.
qs solutions logCr.
qs weighted logCr.
""" % (QUEENS_N, _lit_array(weights))

    n = QUEENS_N
    rows = [0] * n
    solutions = 0
    weighted = 0

    def safe(r, c):
        for j in range(1, c):
            q = rows[j - 1]
            if q == r or abs(q - r) == c - j:
                return False
        return True

    def place(c):
        nonlocal solutions, weighted
        if c > n:
            solutions += 1
            for j in range(1, n + 1):
                weighted = (weighted + weights[j - 1] * rows[j - 1]) % 10007
            return
        for r in range(1, n + 1):
            if safe(r, c):
                rows[c - 1] = r
                place(c + 1)

    place(1)
    return Program("queens", QUEENS_CLASSES, main, rng.randrange(2 ** 31),
                   "%d\n%d\n" % (solutions, weighted),
                   ("Queens", "safe:col:"), ("Queens", "solutions"),
                   ("Queens", "weighted"), "Queens")


# -- sieve: OrderedCollection, at:put:, whileTrue:, Random ------------------

SIEVE_LIMIT = 250
SIEVE_QUERIES = 12
SIEVE_DRAWS = 8

SIEVE_CLASSES = """\
class Sieve [ | flags primes count |
    initialize [ flags := OrderedCollection new. primes := OrderedCollection new. count := 0 ]
    run: limit [ | i j |
        i := 1.
        [ i <= limit ] whileTrue: [ flags add: true. i := i + 1 ].
        flags at: 1 put: false.
        i := 2.
        [ i * i <= limit ] whileTrue: [
            (flags at: i) ifTrue: [
                j := i * i.
                [ j <= limit ] whileTrue: [ flags at: j put: false. j := j + i ] ].
            i := i + 1 ].
        i := 1.
        [ i <= limit ] whileTrue: [
            (flags at: i) ifTrue: [ primes add: i. count := count + 1 ].
            i := i + 1 ].
        ^ count ]
    probe: queries [ | hits sum |
        hits := 0.
        sum := 0.
        queries do: [:q | (flags at: q) ifTrue: [ hits := hits + 1. sum := sum + q ] ].
        ^ hits * 100000 + sum ]
    pick: k [ ^ primes at: k \\\\ primes size + 1 ]
]"""


def sieve(rng):
    queries = [rng.randrange(1, SIEVE_LIMIT + 1) for _ in range(SIEVE_QUERIES)]
    seed = rng.randrange(2 ** 31)
    main = """\
| s r |
s := Sieve new.
(s run: %d) logCr.
(s probe: %s) logCr.
r := Random new.
%d timesRepeat: [ (s pick: r next) logCr ].
""" % (SIEVE_LIMIT, _lit_array(queries), SIEVE_DRAWS)

    flags = [True] * (SIEVE_LIMIT + 1)
    flags[0] = flags[1] = False
    i = 2
    while i * i <= SIEVE_LIMIT:
        if flags[i]:
            for j in range(i * i, SIEVE_LIMIT + 1, i):
                flags[j] = False
        i += 1
    primes = [k for k in range(1, SIEVE_LIMIT + 1) if flags[k]]
    hits = [q for q in queries if flags[q]]
    draws = random.Random(seed)
    out = [len(primes), len(hits) * 100000 + sum(hits)]
    for _ in range(SIEVE_DRAWS):
        out.append(primes[draws.randrange(1000) % len(primes)])
    return Program("sieve", SIEVE_CLASSES, main, seed,
                   "".join("%d\n" % v for v in out),
                   ("Sieve", "run:"), ("Sieve", "pick:"), ("Sieve", "count"),
                   "Sieve")


# -- particles: slot reads and writes ---------------------------------------

PARTICLES = 6
PARTICLE_STEPS = 40
BOX = 40

PARTICLE_CLASSES = """\
class Particle [ | x y vx vy bounces |
    initialize [ x := 0. y := 0. vx := 1. vy := 1. bounces := 0 ]
    x: ax y: ay vx: bx vy: by [ x := ax. y := ay. vx := bx. vy := by ]
    step: size [
        x := x + vx.
        y := y + vy.
        (x < 0 or: [ x >= size ]) ifTrue: [
            vx := vx negated. x := x + vx + vx. bounces := bounces + 1 ].
        (y < 0 or: [ y >= size ]) ifTrue: [
            vy := vy negated. y := y + vy + vy. bounces := bounces + 1 ].
        ^ bounces ]
    x [ ^ x ]
    y [ ^ y ]
    bounces [ ^ bounces ]
]"""


def particles(rng):
    cols = [[rng.randrange(BOX) for _ in range(PARTICLES)],
            [rng.randrange(BOX) for _ in range(PARTICLES)],
            [rng.randrange(1, 4) for _ in range(PARTICLES)],
            [rng.randrange(1, 4) for _ in range(PARTICLES)]]
    main = """\
| ps xs ys vxs vys total |
xs := %s.
ys := %s.
vxs := %s.
vys := %s.
ps := OrderedCollection new.
1 to: %d do: [:k |
    ps add: (Particle new x: (xs at: k) y: (ys at: k) vx: (vxs at: k) vy: (vys at: k)) ].
%d timesRepeat: [ ps do: [:p | p step: %d ] ].
total := 0.
ps do: [:p | total := total + (p x * 10000) + (p y * 100) + p bounces ].
total logCr.
(ps at: 1) bounces logCr.
""" % (_lit_array(cols[0]), _lit_array(cols[1]), _lit_array(cols[2]),
       _lit_array(cols[3]), PARTICLES, PARTICLE_STEPS, BOX)

    state = [list(p) + [0] for p in zip(*cols)]
    for _ in range(PARTICLE_STEPS):
        for p in state:
            p[0] += p[2]
            p[1] += p[3]
            if p[0] < 0 or p[0] >= BOX:
                p[2] = -p[2]
                p[0] += 2 * p[2]
                p[4] += 1
            if p[1] < 0 or p[1] >= BOX:
                p[3] = -p[3]
                p[1] += 2 * p[3]
                p[4] += 1
    total = sum(p[0] * 10000 + p[1] * 100 + p[4] for p in state)
    return Program("particles", PARTICLE_CLASSES, main,
                   rng.randrange(2 ** 31),
                   "%d\n%d\n" % (total, state[0][4]),
                   ("Particle", "step:"), ("Particle", "x"),
                   ("Particle", "bounces"), "Particle")


# -- a seeded generated program, in the style of tests/progen.py ------------

GEN_SHAPES = (gen.SMALL, gen.SMALL, gen.MEDIUM, gen.SMALL, gen.MEDIUM,
              gen.SMALL)
GEN_CALLS = 12


def generated(rng):
    cls = gen.gen_class(rng, "Gen", ["s0", "s1", "s2", "s3"], GEN_SHAPES,
                        chain=True, watched="s1")
    top = cls.methods[-1].selector
    args = [rng.randrange(100) for _ in range(GEN_CALLS)]
    main = "| g |\ng := Gen new.\n" + "".join(
        "(g %s %d) logCr.\n" % (top, a) for a in args)
    ev = gen.Evaluator(cls)
    expected = "".join("%d\n" % ev.send(top, a) for a in args)
    return Program("generated", gen.render_class(cls), main,
                   rng.randrange(2 ** 31), expected,
                   ("Gen", top), ("Gen", "m0:"), ("Gen", "s1"), "Gen")


KERNELS = {
    "fib": fib,
    "queens": queens,
    "sieve": sieve,
    "particles": particles,
    "generated": generated,
}


def make_program(kernel, seed, variant=0):
    """One variant of `kernel`; the same arguments give the same text."""
    return KERNELS[kernel](random.Random("%s/%d/%d" % (kernel, seed, variant)))
