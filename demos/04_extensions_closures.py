"""Algebraic extensions, closures, and isolation.

Every overgroup of K that adds no free complement (an "algebraic"
extension) appears among the finitely many folded quotients of the
graph of K, so they can all be listed.  Filtering them by malnormality
or isolation produces the malnormal closure and the isolator, the
smallest such subgroups containing K; the largest algebraic extension
is the algebraic closure.
"""

from freegroups import (
    Alphabet,
    algebraic_closure,
    algebraic_extensions,
    format_word,
    graph_to_json,
    is_algebraic_extension,
    is_algebraically_closed,
    is_free_factor_of_ambient,
    is_isolated,
    isolator,
    malnormal_closure,
    parse_word,
    principal_quotients,
    rank,
    stallings_graph,
)

X = Alphabet.from_string("ab")
A = Alphabet.from_string("a")
w = lambda s: parse_word(s, X)

print("== Principal quotients of the graph of K = <a^2> ==")
K = stallings_graph(X, [w("aa")])
for pq in principal_quotients(K):
    print(" ", graph_to_json(pq.graph.based))
print()

print("== Classifying extensions ==")
full = stallings_graph(X, [w("a"), w("b")])
print("K <= <a>      :", is_algebraic_extension(K, stallings_graph(X, [w("a")])).kind)
print("<a> <= F(a,b) :", is_algebraic_extension(stallings_graph(X, [w("a")]), full).kind)
print()

print("== Closures of K = <a^2> inside F(a, b) ==")
exts = algebraic_extensions(K)
print("algebraic extensions:", [f"rank {rank(e)}, {e.vertex_count} vertices" for e in exts])
print("algebraic closure   :", graph_to_json(algebraic_closure(K).based))
print("malnormal closure   :", graph_to_json(malnormal_closure(K).based))
print("isolator            :", graph_to_json(isolator(K).based))
print()

print("== Closed subgroups are exactly the free factors ==")
for gens in (["a"], ["aa"], ["ab"], ["abAB"]):
    sub = stallings_graph(X, [w(s) for s in gens])
    closed = is_algebraically_closed(sub)
    factor = is_free_factor_of_ambient(sub)
    print(f"  <{','.join(gens)}>: algebraically closed = {closed}, free factor = {factor}")
print()

print("== Isolation (root closure) in rank one ==")
for p in (2, 3, 5):
    h = stallings_graph(A, [parse_word("a" * p, A)])
    result = is_isolated(h)
    word, m = result.witness
    print(f"  <a^{p}> isolated: {result.isolated} (witness {format_word(word)}^{m}, complete: {result.complete})")
a6 = stallings_graph(A, [parse_word("aaaaaa", A)])
print("  isolator of <a^6> in F(a):", graph_to_json(isolator(a6).based))
