"""Word arithmetic: reduction, products, inverses, cyclic reduction."""

import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.errors import AlphabetMismatchError, InvalidInputError, WordParseError
from freegroups.words import (
    Alphabet,
    Word,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    multiply,
    parse_word,
    reduced_words,
    synthetic_alphabet,
)

from helpers import AB, ABC, rand_word

P = lambda s: parse_word(s, AB)


def test_free_reduce_examples():
    assert format_word(P("aA b")) == "b"
    assert format_word(P("abBA")) == ""
    assert format_word(P("a bB aa")) == "aaa"


def slow_reduce(codes):
    """Independent oracle: repeatedly delete the first cancelling pair."""
    codes = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(codes) - 1):
            if codes[i] == codes[i + 1] ^ 1:
                del codes[i : i + 2]
                changed = True
                break
    return tuple(codes)


def test_free_reduce_matches_scan_oracle():
    rng = Random(1)
    for _ in range(200):
        raw = [rng.randrange(AB.num_codes) for _ in range(rng.randint(0, 12))]
        assert free_reduce(AB, raw).codes == slow_reduce(raw)


def test_free_reduce_idempotent():
    rng = Random(2)
    for _ in range(100):
        raw = [rng.randrange(ABC.num_codes) for _ in range(rng.randint(0, 10))]
        once = free_reduce(ABC, raw)
        assert free_reduce(ABC, once.codes) == once


def test_multiply_examples():
    assert format_word(multiply(P("ab"), P("Ba"))) == "aa"
    assert multiply(P("a"), P("")) == P("a")
    assert format_word(multiply(P("abA"), P("aBA"))) == ""


def test_multiply_associative_and_inverse():
    rng = Random(3)
    for _ in range(100):
        u, v, w = (rand_word(rng, AB, 6) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert multiply(w, invert(w)) == Word(AB)


def test_invert_examples():
    assert format_word(invert(P("ab"))) == "BA"
    assert invert(P("")) == P("")
    assert format_word(invert(P("aBa"))) == "AbA"
    assert invert(invert(P("abAB"))) == P("abAB")


def test_cyclic_reduce_examples():
    conj, core = cyclic_reduce(P("abA"))
    assert (format_word(conj), format_word(core)) == ("a", "b")
    conj, core = cyclic_reduce(P("ab"))
    assert (format_word(conj), format_word(core)) == ("", "ab")
    w = parse_word("abcBA", ABC)
    conj, core = cyclic_reduce(w)
    assert (format_word(conj), format_word(core)) == ("ab", "c")
    # re-multiplication oracle
    assert multiply(conj, multiply(core, invert(conj))) == w


def test_cyclic_reduce_roundtrip_property():
    rng = Random(4)
    for _ in range(150):
        w = rand_word(rng, AB, 10)
        conj, core = cyclic_reduce(w)
        assert multiply(conj, multiply(core, invert(conj))) == w
        assert core.is_cyclically_reduced()


def test_parse_format_examples():
    w = P("bbAA")
    assert w.codes == (2, 2, 1, 1)  # b b a^-1 a^-1
    assert P("aA") == Word(AB)
    assert format_word(Word(AB, (2, 1))) == "bA"


def test_parse_roundtrip():
    rng = Random(5)
    for _ in range(100):
        w = rand_word(rng, ABC, 8)
        assert parse_word(format_word(w), ABC) == w


def test_parse_error_position():
    with pytest.raises(WordParseError) as err:
        parse_word("abx", AB)
    assert err.value.position == 2


def test_parse_accepts_a_letter_and_its_exact_uppercase_only(capsys):
    # KELVIN SIGN lowercases to "k" but is not "k".upper()
    from freegroups.cli import main

    k = Alphabet("k")
    assert parse_word("K", k).codes == (1,)
    assert parse_word(" k K k", k).codes == (0,)
    with pytest.raises(WordParseError) as err:
        parse_word("\u212a", k)
    assert err.value.position == 0
    assert main(["--alphabet", "k", "reduce", "--word", "\u212a"]) == 2
    assert capsys.readouterr().out == ""


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([AB, ABC]), st.lists(st.integers(0, 5), max_size=24),
       st.lists(st.integers(0, 5), max_size=24), st.integers(0, 2**32))
def test_trusted_words_are_what_the_public_constructor_builds(alphabet, raw, other, seed):
    # parse_word, free_reduce, multiply and invert wrap their reduced
    # codes without Word's checks; the checked constructor must agree
    raw = [c % alphabet.num_codes for c in raw]
    other = [c % alphabet.num_codes for c in other]
    names = alphabet._names
    rng = Random(seed)
    text = "".join(names[c] + rng.choice(["", "", " ", "\t"]) for c in raw)
    u, v = free_reduce(alphabet, raw), free_reduce(alphabet, other)
    assert u == Word(alphabet, slow_reduce(raw))
    assert parse_word(text, alphabet) == u
    assert multiply(u, v) == Word(alphabet, slow_reduce(raw + other))
    assert invert(u) == Word(alphabet, [c ^ 1 for c in reversed(u.codes)])
    for w in (u, parse_word(text, alphabet), multiply(u, v), invert(u)):
        assert type(w.codes) is tuple


def test_parse_reports_positions_while_reducing():
    # whitespace counts towards the position, and so do cancelled letters
    with pytest.raises(WordParseError) as err:
        parse_word("ab \tBA x", AB)
    assert err.value.position == 7
    with pytest.raises(WordParseError) as err:
        parse_word("k K\u212a", Alphabet("k"))
    assert err.value.position == 3


def test_public_word_still_checks_its_codes():
    with pytest.raises(InvalidInputError, match="letter code 4 outside alphabet"):
        Word(AB, (0, 4))
    with pytest.raises(InvalidInputError, match="letter code -1 outside alphabet"):
        Word(AB, (-1,))
    with pytest.raises(InvalidInputError, match="not freely reduced at b b\\^-1"):
        Word(AB, (0, 2, 3))


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        multiply(P("a"), parse_word("a", ABC))


def test_alphabet_validation():
    with pytest.raises(InvalidInputError):
        Alphabet(["a", "a"])
    with pytest.raises(InvalidInputError):
        Word(AB, (0, 1))  # aa^-1 is not reduced


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Alphabet(["a", ""]), "alphabet symbols must be nonempty strings"),
        (lambda: free_reduce(AB, [0, 4]), "letter code 4 outside alphabet"),
        (lambda: free_reduce(AB, [-1]), "letter code -1 outside alphabet"),
    ],
    ids=["empty-symbol", "code-above", "code-negative"],
)
def test_word_layer_error_paths(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_empty_alphabet_allowed():
    empty = Alphabet("")
    assert free_reduce(empty, []) == Word(empty)


def test_reduced_words_enumeration():
    ws = list(reduced_words(AB, 2))
    # 1 + 4 + 4*3 words up to length 2, shortlex order, no repeats
    assert len(ws) == 17
    assert len(set(ws)) == 17
    assert ws[0] == Word(AB)
    assert all(len(w) <= 2 for w in ws)


def test_synthetic_alphabet():
    assert synthetic_alphabet(3).symbols == ("a", "b", "c")
    assert synthetic_alphabet(30).size == 30


def test_arbitrary_symbol_identifiers():
    alph = Alphabet(["x1", "x2"])
    w = Word(alph, (0, 2, 1))
    assert format_word(w) == "x1*x2*x1^-1"
    assert invert(invert(w)) == w
    with pytest.raises(InvalidInputError):
        parse_word("x1", alph)  # textual convention needs one-letter symbols


def test_alphabet_letters_round_trip_through_their_uppercase():
    # an accepted letter's inverse formats as a character that parses back;
    # letters without such an uppercase are rejected, in the CLI too
    import sys

    from freegroups.cli import main

    accepted = 0
    for i in range(sys.maxunicode + 1):
        ch = chr(i)
        if ch == "a" or not (ch.isalpha() and ch == ch.lower()):
            continue
        try:
            alphabet = Alphabet.from_string("a" + ch)
        except InvalidInputError:
            continue
        accepted += 1
        w = Word(alphabet, (3, 0, 2, 1))  # ch^-1 a ch a^-1
        assert parse_word(format_word(w), alphabet) == w
    assert accepted > 1000
    for letter in ("ß", "ς", "ª", "ı"):
        with pytest.raises(InvalidInputError):
            Alphabet.from_string("a" + letter)
        assert not Alphabet(("a", letter)).single_letter()
    with pytest.raises(SystemExit) as exc:
        sys.exit(main(["--alphabet", "aß", "reduce", "--word", "a"]))
    assert exc.value.code == 2
