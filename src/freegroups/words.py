"""Freely reduced words over a finite symmetrized alphabet.

Elements of the free group F(X) are kept as freely reduced sequences of
signed letters.  A signed letter is stored as a small integer code:
positive letter ``x_i`` is ``2*i`` and its inverse ``x_i^-1`` is
``2*i + 1``, so inversion is ``code ^ 1`` and the code order
``a < a^-1 < b < b^-1 < ...`` doubles as the canonical tie-breaking
order used elsewhere in the library.

The textual convention is one Latin letter per generator, uppercase for
the inverse: ``"abA"`` is ``a b a^-1``.  Alphabets with arbitrary symbol
names are supported by the data structures; only the string parser
requires the one-letter convention.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import AlphabetMismatchError, InvalidInputError, WordParseError


class Alphabet:
    """An ordered finite set of generator symbols.

    The order is fixed for the lifetime of a computation; canonical
    graph numbering and serialized output depend on it.  The empty
    alphabet is allowed and yields the trivial free group.
    """

    __slots__ = ("symbols", "_index", "_letters", "_names", "_bytemap")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(str(s) for s in symbols)
        if len(set(syms)) != len(syms):
            raise InvalidInputError(f"alphabet symbols must be distinct: {syms!r}")
        for s in syms:
            if not s:
                raise InvalidInputError("alphabet symbols must be nonempty strings")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}
        # The one-letter convention, when every symbol is a cased letter:
        # each symbol and its exact uppercase map to their signed codes.
        # Insertion follows code order, so the keys read back by code.
        # The byte map takes each latin-1 character to its code as one
        # byte, and every other character, or a code too large, to 255.
        self._letters: Optional[dict[str, int]] = None
        self._names: tuple[str, ...] = ()
        self._bytemap = b""
        if all(map(_is_cased_letter, syms)):
            self._letters = {}
            for i, s in enumerate(syms):
                self._letters[s] = 2 * i
                self._letters[s.upper()] = 2 * i + 1
            self._names = tuple(self._letters)
            bytemap = bytearray(b"\xff") * 256
            for ch, code in self._letters.items():
                if ord(ch) < 256 and code < 255:
                    bytemap[ord(ch)] = code
            self._bytemap = bytes(bytemap)

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        """Build an alphabet of one-letter symbols, e.g. ``"ab"``."""
        if not all(map(_is_cased_letter, text)):
            raise InvalidInputError(
                f"alphabet string must be lowercase letters with an uppercase, got {text!r}"
            )
        return cls(text)

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def num_codes(self) -> int:
        """Number of signed letters, ``2 * size``."""
        return 2 * len(self.symbols)

    def code_name(self, code: int) -> str:
        """Human-readable name of a signed code, e.g. ``a`` or ``a^-1``."""
        sym = self.symbols[code >> 1]
        return sym if code & 1 == 0 else sym + "^-1"

    def single_letter(self) -> bool:
        return self._letters is not None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols) if self.single_letter() else self.symbols!r})"


def _is_cased_letter(s: str) -> bool:
    """A lowercase letter whose uppercase (its inverse) is one other
    character that lowercases back to it: not ``ß``, ``ς`` or caseless."""
    return s.isalpha() and s != s.upper() and len(s.upper()) == 1 and s.upper().lower() == s


class Word:
    """A freely reduced word; the empty word is the identity.

    Words are immutable values, safe to share and hash.  ``u * v`` is
    the group product (concatenate and reduce), ``~w`` the inverse.
    """

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet: Alphabet, codes: Sequence[int] = ()):
        codes = tuple(codes)
        n = alphabet.num_codes
        for c in codes:
            if not 0 <= c < n:
                raise InvalidInputError(f"letter code {c} outside alphabet")
        for x, y in zip(codes, codes[1:]):
            if x == y ^ 1:
                raise InvalidInputError(
                    f"word is not freely reduced at {alphabet.code_name(x)}"
                    f" {alphabet.code_name(y)}"
                )
        self.alphabet = alphabet
        self.codes = codes

    @classmethod
    def _trusted(cls, alphabet: Alphabet, codes: tuple[int, ...]) -> "Word":
        """Wrap codes that a reduction loop over this alphabet has just
        produced, in range and freely reduced, without the checks of
        ``__init__``; like ``XDigraph._trusted``, it is for the library's
        own results, never for a caller's sequence."""
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.codes = codes
        return w

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.codes == other.codes
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.codes))

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return invert(self) ** (-n)
        result = Word(self.alphabet)
        for _ in range(n):
            result = multiply(result, self)
        return result

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def shortlex_key(self) -> tuple:
        """Total order key: by length, then by signed codes."""
        return (len(self.codes), self.codes)

    def is_cyclically_reduced(self) -> bool:
        c = self.codes
        return len(c) < 2 or c[0] != c[-1] ^ 1


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet)


def _check_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError(
            f"operands use different alphabets: {u.alphabet!r} vs {v.alphabet!r}"
        )


def free_reduce(alphabet: Alphabet, raw: Iterable[int]) -> Word:
    """Freely reduce a raw sequence of signed-letter codes.

    Single left-to-right stack scan, linear in the input length;
    idempotent on already-reduced input.
    """
    n = alphabet.num_codes
    stack: list[int] = []
    for c in raw:
        if not 0 <= c < n:
            raise InvalidInputError(f"letter code {c} outside alphabet")
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return Word._trusted(alphabet, tuple(stack))


def multiply(u: Word, v: Word) -> Word:
    """Group product: freely reduced concatenation."""
    _check_same_alphabet(u, v)
    stack = list(u.codes)
    for c in v.codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return Word._trusted(u.alphabet, tuple(stack))


def invert(w: Word) -> Word:
    """Formal inverse: reversed sequence, all signs flipped."""
    return Word._trusted(w.alphabet, tuple([c ^ 1 for c in reversed(w.codes)]))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conjugator * core * conjugator^-1``.

    The core is cyclically reduced (first letter is not the inverse of
    the last) and the conjugator is the maximal-length peel.
    """
    codes = w.codes
    i, j = 0, len(codes)
    while j - i >= 2 and codes[i] == codes[j - 1] ^ 1:
        i += 1
        j -= 1
    return Word(w.alphabet, codes[:i]), Word(w.alphabet, codes[i:j])


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the one-letter textual convention, freely reducing on the way.

    Lowercase is a positive letter, its exact ``str.upper()`` the
    inverse; whitespace is ignored.  Any other character, including one
    that merely lowercases to a letter, raises :class:`WordParseError`
    with the offending position.

    A latin-1 text of letters is mapped to its codes by one
    ``bytes.translate``; when no adjacent pair of them cancels, those
    codes are the word.  Any other text, such as one with whitespace or
    an unknown character, goes through the loop over its characters
    (``_letter_codes``).
    """
    letters = alphabet._letters
    if letters is None:
        raise InvalidInputError(
            "textual parsing needs an alphabet of single lowercase letters"
        )
    try:
        raw = text.encode("latin-1").translate(alphabet._bytemap)
    except UnicodeEncodeError:
        raw = b"\xff"
    if 255 in raw:
        raw = _letter_codes(text, letters)
    elif not any(bytes((c, c ^ 1)) in raw for c in range(min(alphabet.num_codes, 254))):
        return Word._trusted(alphabet, tuple(raw))
    stack: list[int] = []
    for code in raw:
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return Word._trusted(alphabet, tuple(stack))


def _letter_codes(text: str, letters: dict[str, int]) -> list[int]:
    """The codes of the letters of ``text``, read one character at a
    time; whitespace is skipped, and any other character raises
    :class:`WordParseError` at its position."""
    codes = []
    for pos, ch in enumerate(text):
        code = letters.get(ch)
        if code is None:
            if ch.isspace():
                continue
            raise WordParseError(f"unknown character {ch!r}", pos)
        codes.append(code)
    return codes


def synthetic_alphabet(size: int) -> Alphabet:
    """Fresh abstract alphabet of the given rank, used when rewriting a
    subgroup over a basis of another subgroup."""
    if size <= 26:
        return Alphabet("abcdefghijklmnopqrstuvwxyz"[:size])
    return Alphabet(tuple(f"y{i + 1}" for i in range(size)))


def reduced_words(alphabet: Alphabet, max_len: Optional[int] = None) -> Iterator[Word]:
    """Yield all freely reduced words in shortlex order, identity first.

    Breadth-first extension by non-cancelling letters; bounded by
    ``max_len`` when given, otherwise unbounded.
    """
    frontier: list[tuple[int, ...]] = [()]
    length = 0
    codes = range(alphabet.num_codes)
    while frontier and (max_len is None or length <= max_len):
        for t in frontier:
            yield Word(alphabet, t)
        frontier = [
            t + (c,) for t in frontier for c in codes if not t or t[-1] != c ^ 1
        ]
        length += 1


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`; the identity prints as ``""``."""
    if not w.alphabet.single_letter():
        return "*".join(w.alphabet.code_name(c) for c in w.codes)
    names = w.alphabet._names
    return "".join([names[c] for c in w.codes])
