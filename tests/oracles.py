"""Independent test oracles, kept free of the library's own constructions.

The matching oracle computes maximum bipartite matchings between adjacent
Hamming levels of {0,1}^n with Hopcroft-Karp augmenting paths; summing over
level pairs gives the largest possible domain of any injective one-flip
sum-raising map, without reference to bracket matching.  The bracket oracle
matches d_1/d_2 letters with an explicit stack.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


def _one_bit_down(mask: int):
    """All masks obtained by clearing one set bit."""
    w = mask
    while w:
        b = w & -w
        yield mask ^ b
        w ^= b


def _hk_matching_size(sources: list[int]) -> int:
    """Hopcroft-Karp maximum matching size; targets are one-bit-down masks."""
    pair_u: dict[int, int] = {}
    pair_v: dict[int, int] = {}
    dist: dict[int, int | None] = {}

    # greedy seed: most edges match immediately on these graphs
    for u in sources:
        for v in _one_bit_down(u):
            if v not in pair_v:
                pair_u[u] = v
                pair_v[v] = u
                break

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in sources:
            if u not in pair_u:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = None
        found_free = False
        while queue:
            u = queue.popleft()
            for v in _one_bit_down(u):
                w = pair_v.get(v)
                if w is None:
                    found_free = True
                elif dist.get(w) is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_free

    def dfs(u: int) -> bool:
        for v in _one_bit_down(u):
            w = pair_v.get(v)
            if w is None or (dist.get(w) == dist[u] + 1 and dfs(w)):
                pair_u[u] = v
                pair_v[v] = u
                return True
        dist[u] = None
        return False

    size = len(pair_u)
    while bfs():
        for u in sources:
            if u not in pair_u and dfs(u):
                size += 1
    return size


def max_one_flip_domain(n: int) -> int:
    """Largest domain of an injective map flipping one d1 to d2 over {d1,d2}^n.

    Sources at Hamming level j (bit set = position holds d1) can only map into
    level j-1, and distinct level pairs share no sources or targets, so the
    global maximum is the sum of independent per-level maximum matchings.
    """
    levels: dict[int, list[int]] = {j: [] for j in range(n + 1)}
    for mask in range(1 << n):
        levels[bin(mask).count("1")].append(mask)
    return sum(_hk_matching_size(levels[j]) for j in range(1, n + 1))


def unmatched_positions(indices) -> tuple[list[int], list[int]]:
    """Positions of unmatched d_1's (openings) and d_2's (closings), ascending.

    Stack-based bracket matching, one letter at a time: the reference for the
    library's balance-minimum rule.
    """
    open_stack: list[int] = []
    unmatched_closings: list[int] = []
    for pos, ix in enumerate(indices):
        if ix == 0:
            open_stack.append(pos)
        elif ix == 1:
            if open_stack:
                open_stack.pop()
            else:
                unmatched_closings.append(pos)
    return open_stack, unmatched_closings


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
    return out


def positive_walk_probability(horizon: int, m: int = 0) -> Fraction:
    """P(S_l > 0 for all m < l <= horizon) for the simple +/-1 walk, exactly.

    Plain dynamic programming over path counts; no reflection tricks, so it is
    an independent check for the Monte Carlo estimate.
    """
    # counts of walks of length l by current sum, unconstrained up to step m
    state = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for s, c in state.items():
            for step in (-1, 1):
                nxt[s + step] = nxt.get(s + step, 0) + c
        state = nxt
    # beyond m every partial sum must stay positive
    for _ in range(horizon - m):
        nxt = {}
        for s, c in state.items():
            for step in (-1, 1):
                t = s + step
                if t > 0:
                    nxt[t] = nxt.get(t, 0) + c
        state = nxt
    return Fraction(sum(state.values()), 2 ** horizon)
