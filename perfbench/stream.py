"""The seeded random-actions stream.

The stream mixes random diagonal actions with random finite diagonal groups.
Inputs are plain JSON-able lists so that the parent process can generate them
and hand them to a worker; the worker turns them into stratacheck objects.
"""

from __future__ import annotations

import random
from functools import partial
from math import lcm

BOUND = 4
RELATION_BOUND = 6
GROUP_EVERY = 4  # one group per three actions
MAX_GROUP_ORDER = 12


# (variables, torus rows, finite factors): the shape sets most of an action's
# cost, so every block of len(SHAPES) actions takes each shape once
SHAPES = [(n, t, f) for n in range(2, 9) for t in range(3) for f in range(3)]
SHAPE_TRIES = 20


def _random_action(rng: random.Random, shape) -> list:
    n, rows, factors = shape
    torus = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
    finite = [
        [rng.randint(2, 5), [rng.randint(-2, 2) for _ in range(n)]]
        for _ in range(factors)
    ]
    return ["action", n, torus, finite]


def _random_group(rng: random.Random) -> list:
    while True:
        n = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            order = rng.randint(2, 6)
            gens.append([order, [rng.randrange(order) for _ in range(n)]])
        if 1 < len(group_elements(gens)[1]) <= MAX_GROUP_ORDER:
            return ["group", gens]


class Stream:
    """Distinct seeded requests; every GROUP_EVERY-th one is a group.

    Action shapes are drawn without replacement, block by block, so the mix
    of cheap and costly actions varies little between seeds.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seen: set = set()
        self._index = 0
        self._shapes: list = []

    def _distinct(self, make, tries: int) -> list | None:
        for _ in range(tries):
            request = make(self._rng)
            key = repr(request)
            if key not in self._seen:
                self._seen.add(key)
                return request
        return None

    def _next(self) -> list:
        if self._index % GROUP_EVERY == 0:
            while True:
                request = self._distinct(_random_group, 1)
                if request is not None:
                    return request
        while True:
            if not self._shapes:
                self._shapes = self._rng.sample(SHAPES, len(SHAPES))
            # small shapes such as (2, 0, 0) run out of distinct actions
            request = self._distinct(
                partial(_random_action, shape=self._shapes.pop()), SHAPE_TRIES
            )
            if request is not None:
                return request

    def take(self, k: int) -> list:
        out = []
        for _ in range(k):
            self._index += 1
            out.append(self._next())
        return out


def group_elements(gens) -> tuple[int, set]:
    """The common denominator and every element as an exponent tuple over it."""
    common = lcm(*(order for order, _ in gens))
    n = len(gens[0][1])
    elements = {(0,) * n}
    for order, exps in gens:
        step = tuple(e * (common // order) % common for e in exps)
        grown = set(elements)
        for base in elements:
            cur = base
            for _ in range(order - 1):
                cur = tuple((a + b) % common for a, b in zip(cur, step))
                grown.add(cur)
        elements = grown
    return common, elements
