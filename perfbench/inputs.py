"""Seeded input generation for the benchmark workloads.

Words are built here as lists of signed-letter codes (``2*i`` for the
i-th letter, ``2*i + 1`` for its inverse, the library's convention) and
reduced by this module, so the library only ever receives finished
words and graphs.
"""

from __future__ import annotations

from random import Random

LETTERS = "abcd"


def reduce_codes(codes: list[int]) -> list[int]:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return stack


def inverse_codes(codes: list[int]) -> list[int]:
    return [c ^ 1 for c in reversed(codes)]


def spell(codes: list[int]) -> str:
    """One-letter text form: lowercase letter, uppercase inverse."""
    return "".join(
        LETTERS[c >> 1] if c & 1 == 0 else LETTERS[c >> 1].upper() for c in codes
    )


def random_word(rng: Random, rank: int, length: int) -> list[int]:
    """Uniform-ish reduced word of exactly ``length`` letters."""
    out: list[int] = []
    n = 2 * rank
    while len(out) < length:
        c = rng.randrange(n)
        if out and out[-1] == c ^ 1:
            continue
        out.append(c)
    return out


def random_cyclic_word(rng: Random, rank: int, length: int) -> list[int]:
    """Cyclically reduced word that is not a proper power."""
    while True:
        w = random_word(rng, rank, length)
        if w[0] == w[-1] ^ 1:
            continue
        if spell(w) in spell(w + w)[1:-1]:
            continue  # w = u^k with k >= 2
        return w


def product_of(rng: Random, factors: list[list[int]], length: int) -> list[int]:
    """Reduced product of random factors (or inverses) with no cancellation
    between consecutive factors, at least ``length`` letters long."""
    signed = factors + [inverse_codes(f) for f in factors]
    out: list[int] = []
    while len(out) < length:
        f = rng.choice(signed)
        if out and out[-1] == f[0] ^ 1:
            continue
        out.extend(f)
    return out


def whitehead_image(rng: Random, rank: int, words: list[list[int]]) -> list[list[int]]:
    """Image of ``words`` under a random Whitehead multiplier automorphism
    ``x -> a^e x a^-f`` (e, f in {0, 1}) for every letter x other than a."""
    a = rng.randrange(2 * rank)
    images: list[list[int]] = []
    for i in range(rank):
        x = 2 * i
        img = [x]
        if i != a >> 1:
            if rng.random() < 0.5:
                img = [a] + img
            if rng.random() < 0.5:
                img = img + [a ^ 1]
        images.append(img)
    out = []
    for w in words:
        raw: list[int] = []
        for c in w:
            img = images[c >> 1]
            raw.extend(inverse_codes(img) if c & 1 else img)
        out.append(reduce_codes(raw))
    return out


def signed_permutation(rng: Random, rank: int):
    """Random automorphism permuting the letters and inverting some."""
    perm = list(range(rank))
    rng.shuffle(perm)
    flips = [rng.randrange(2) for _ in range(rank)]

    def apply(codes: list[int]) -> list[int]:
        return [2 * perm[c >> 1] + ((c & 1) ^ flips[c >> 1]) for c in codes]

    return apply
