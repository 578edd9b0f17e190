"""Command-line front end.

Every verb works over a fixed alphabet (``--alphabet ab``) and takes
subgroups either as comma-separated generator word lists or as graph
JSON (inline when the argument starts with ``{``, otherwise a path to
a ``.json`` file); graph inputs are validated as folded connected core
graphs on load.  Boolean verbs print ``yes``/``no`` with certificates;
``--json`` switches to machine-readable records.  Exit codes: 0
computed, 1 predicate answered "no" under ``--strict``, 2 usage error,
3 resource limit hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import extensions as ext
from . import intersect as meet
from . import subgroup as sub
from .errors import FreeGroupsError, InvalidInputError, ResourceLimitError
from .graph import BasedGraph, graph_from_json, graph_to_json, to_dot
from .subgroup import SubgroupGraph
from .whitehead import DEFAULT_PLATEAU_BUDGET, is_free_factor, is_free_factor_of_ambient
from .words import Alphabet, Word, format_word, parse_word

PREDICATE_VERBS = {
    "member",
    "normal",
    "conj-equiv",
    "conj-into",
    "malnormal",
    "cyclonormal",
    "immersed",
    "hn-check",
    "free-factor",
    "isolated",
}


def _load_words(spec: str, alphabet: Alphabet) -> list[Word]:
    return [parse_word(part, alphabet) for part in spec.split(",") if part.strip()]


def _load_subgroup(spec: str, alphabet: Alphabet) -> SubgroupGraph:
    text = spec.strip()
    if text.startswith("{"):
        return _subgroup_from_json(text, alphabet)
    if text.endswith(".json"):
        try:
            with open(text, encoding="utf-8") as fh:
                return _subgroup_from_json(fh.read(), alphabet)
        except OSError as exc:
            raise InvalidInputError(f"cannot read graph file {text}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InvalidInputError(f"graph file {text} is not UTF-8 text") from None
    return sub.stallings_graph(alphabet, _load_words(text, alphabet))


def _subgroup_from_json(text: str, alphabet: Alphabet) -> SubgroupGraph:
    based = graph_from_json(text)
    if based.graph.alphabet != alphabet:
        raise InvalidInputError("graph file alphabet does not match --alphabet")
    return SubgroupGraph(based.graph, based.base)  # validates folded/core/connected


def _emit_graph(g: SubgroupGraph, args) -> None:
    if args.dot:
        emit_dot(g.based, args.dot)
    print(graph_to_json(g.based))


def emit_dot(g: BasedGraph, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g))
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from None


def _answer(ok: bool, args, cert: Optional[dict] = None) -> int:
    """Print a predicate verdict plus certificate; exit 1 on --strict no."""
    cert = cert or {}
    if args.json:
        print(json.dumps({"answer": ok, **cert}))
    else:
        print("yes" if ok else "no")
        for key, value in cert.items():
            print(f"{key}: {value}")
    return 1 if (args.strict and not ok) else 0


def _graph_record(g: SubgroupGraph) -> dict:
    return json.loads(graph_to_json(g.based))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        alphabet = Alphabet.from_string(args.alphabet)
        return _dispatch(args, alphabet)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except FreeGroupsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``fg`` parser, built once per process: parsing leaves it
    unchanged, and argparse copies the ``--sub`` list default before
    appending to it."""
    parser = argparse.ArgumentParser(
        prog="fg",
        description="Subgroups of free groups as folded core graphs.",
    )
    parser.add_argument("--alphabet", required=True, help="generator letters, e.g. ab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sub", action="append", default=[],
                        help="subgroup: comma-separated words, inline JSON, or a .json path")
    common.add_argument("--word", help="a word argument, e.g. abA")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 when a predicate answers no")
    common.add_argument("--dot", metavar="PATH", help="also write the result graph as DOT")

    verbs = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return verbs.add_parser(name, parents=[common], **kwargs)

    add("reduce", help="freely reduce a word")
    add("graph", help="canonical subgroup graph as JSON")
    add("member", help="generalized word problem")
    p = add("basis", help="free basis from a spanning tree")
    p.add_argument("--geodesic", action="store_true", help="use a geodesic tree")
    add("rank", help="rank of the subgroup")
    add("index", help="index in the ambient free group")
    add("normal", help="normality test")
    add("conjugate", help="graph of the conjugate subgroup")
    add("conj-equiv", help="conjugacy of two subgroups, with witness")
    add("conj-into", help="conjugacy into another subgroup, with witness")
    add("power", help="least positive power lying in the subgroup")
    add("hall", help="finite-index completion avoiding a word")
    add("join", help="subgroup generated by two subgroups")
    add("intersect", help="intersection of two subgroups")
    add("components", help="component reports of the product graph")
    add("malnormal", help="malnormality test, with witness")
    add("cyclonormal", help="cyclonormality test")
    add("immersed", help="no-cancellation test for a generating tuple")
    add("hn-check", help="intersection rank inequality probe")
    p = add("free-factor", help="free factor test")
    p.add_argument("--ambient", action="store_true", help="test against the whole group")
    p.add_argument("--in", dest="inside", metavar="SUB", help="test inside this subgroup")
    p.add_argument("--plateau-budget", type=int, default=DEFAULT_PLATEAU_BUDGET,
                   help="accepted for compatibility; the test is exact and ignores it")
    add("quotients", help="principal quotients of the subgroup graph")
    add("ext-type", help="classify an extension K <= H as algebraic or free")
    add("extensions", help="all algebraic extensions")
    p = add("closure", help="algebraic, malnormal, or isolated closure")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--algebraic", action="store_true")
    kind.add_argument("--malnormal", action="store_true")
    kind.add_argument("--isolated", action="store_true")
    p = add("isolated", help="isolation (root-closure) test")
    p.add_argument("--depth", type=int,
                   help="accepted for compatibility; the test is exact and ignores it")
    add("dot", help="DOT export of the subgroup graph")
    return parser


def _need_subs(args, alphabet: Alphabet, count: int) -> list[SubgroupGraph]:
    if len(args.sub) != count:
        raise InvalidInputError(
            f"verb {args.verb!r} needs exactly {count} --sub argument(s)"
        )
    return [_load_subgroup(s, alphabet) for s in args.sub]


def _need_word(args, alphabet: Alphabet) -> Word:
    if args.word is None:
        raise InvalidInputError(f"verb {args.verb!r} needs --word")
    return parse_word(args.word, alphabet)


def _dispatch(args, alphabet: Alphabet) -> int:
    verb = args.verb

    if verb == "reduce":
        print(format_word(_need_word(args, alphabet)))
        return 0

    if verb == "graph":
        (g,) = _need_subs(args, alphabet, 1)
        _emit_graph(g, args)
        return 0

    if verb == "member":
        (g,) = _need_subs(args, alphabet, 1)
        return _answer(sub.contains(g, _need_word(args, alphabet)), args)

    if verb == "basis":
        (g,) = _need_subs(args, alphabet, 1)
        tree = sub.spanning_tree(g, geodesic=args.geodesic)
        words = [format_word(w) for w in sub.basis(g, tree).elements]
        print(json.dumps(words) if args.json else "\n".join(words))
        return 0

    if verb == "rank":
        (g,) = _need_subs(args, alphabet, 1)
        print(sub.rank(g))
        return 0

    if verb == "index":
        (g,) = _need_subs(args, alphabet, 1)
        idx = sub.index(g)
        if args.json:
            reps = (
                [format_word(w) for w in sub.coset_representatives(g)]
                if idx is not None
                else None
            )
            print(json.dumps({"index": idx, "representatives": reps}))
        else:
            print("infinite" if idx is None else idx)
        return 0

    if verb == "normal":
        (g,) = _need_subs(args, alphabet, 1)
        return _answer(sub.is_normal(g), args)

    if verb == "conjugate":
        (g,) = _need_subs(args, alphabet, 1)
        _emit_graph(sub.conjugate(g, _need_word(args, alphabet)), args)
        return 0

    if verb == "conj-equiv":
        h, k = _need_subs(args, alphabet, 2)
        witness = sub.conjugacy_equivalent(h, k)
        cert = {"conjugator": format_word(witness)} if witness is not None else {}
        return _answer(witness is not None, args, cert)

    if verb == "conj-into":
        k, h = _need_subs(args, alphabet, 2)
        witness = sub.conjugate_into(k, h)
        cert = {"conjugator": format_word(witness)} if witness is not None else {}
        return _answer(witness is not None, args, cert)

    if verb == "power":
        (g,) = _need_subs(args, alphabet, 1)
        m = sub.power_in(g, _need_word(args, alphabet))
        if args.json:
            print(json.dumps({"power": m}))
        else:
            print("none" if m is None else m)
        return 0

    if verb == "hall":
        (g,) = _need_subs(args, alphabet, 1)
        result = sub.hall_completion(g, _need_word(args, alphabet))
        if args.dot:
            emit_dot(result.subgroup.based, args.dot)
        if args.json:
            print(json.dumps({
                "index": result.finite_index,
                "basis_h": [format_word(w) for w in result.basis_h],
                "basis_c": [format_word(w) for w in result.basis_c],
                "graph": _graph_record(result.subgroup),
            }))
        else:
            print(f"index: {result.finite_index}")
            print("basis_h: " + ",".join(format_word(w) for w in result.basis_h))
            print("basis_c: " + ",".join(format_word(w) for w in result.basis_c))
        return 0

    if verb == "join":
        h, k = _need_subs(args, alphabet, 2)
        _emit_graph(sub.join(h, k), args)
        return 0

    if verb == "intersect":
        h, k = _need_subs(args, alphabet, 2)
        _emit_graph(meet.intersection(h, k), args)
        return 0

    if verb == "components":
        h, k = _need_subs(args, alphabet, 2)
        records = []
        for report in meet.component_analysis(h, k):
            records.append({
                "vertices": report.component.vertex_count,
                "edges": len(report.component.edges),
                "contains_base_pair": report.contains_base_pair,
                "representative_vertex": list(report.representative_vertex),
                "rank": report.rank,
                "double_coset_witness": (
                    format_word(report.double_coset_witness)
                    if report.double_coset_witness is not None
                    else None
                ),
            })
        print(json.dumps(records))
        return 0

    if verb == "malnormal":
        (g,) = _need_subs(args, alphabet, 1)
        ok, witness = meet.is_malnormal(g)
        cert = {} if witness is None else {"witness": format_word(witness)}
        return _answer(ok, args, cert)

    if verb == "cyclonormal":
        (g,) = _need_subs(args, alphabet, 1)
        return _answer(meet.is_cyclonormal(g), args)

    if verb == "immersed":
        if len(args.sub) != 1 or args.sub[0].strip().startswith("{") \
                or args.sub[0].strip().endswith(".json"):
            raise InvalidInputError("immersed needs one --sub generating word list")
        gens = _load_words(args.sub[0], alphabet)
        return _answer(meet.is_immersed(gens), args)

    if verb == "hn-check":
        h, k = _need_subs(args, alphabet, 2)
        return _answer(meet.hanna_neumann_check(h, k), args)

    if verb == "free-factor":
        (k,) = _need_subs(args, alphabet, 1)
        if args.inside is not None:
            h = _load_subgroup(args.inside, alphabet)
            ok = is_free_factor(k, h)
        else:
            ok = is_free_factor_of_ambient(k)
        return _answer(ok, args)

    if verb == "quotients":
        (k,) = _need_subs(args, alphabet, 1)
        records = [_graph_record(pq.graph) for pq in ext.principal_quotients(k)]
        print(json.dumps(records))
        return 0

    if verb == "ext-type":
        k, h = _need_subs(args, alphabet, 2)
        verdict = ext.is_algebraic_extension(k, h)
        if args.json:
            print(json.dumps({
                "kind": verdict.kind,
                "free_factor": (
                    _graph_record(verdict.free_factor)
                    if verdict.free_factor is not None
                    else None
                ),
            }))
        else:
            print(verdict.kind)
            if verdict.free_factor is not None:
                print("free_factor: " + graph_to_json(verdict.free_factor.based))
        return 0

    if verb == "extensions":
        (k,) = _need_subs(args, alphabet, 1)
        print(json.dumps([_graph_record(e) for e in ext.algebraic_extensions(k)]))
        return 0

    if verb == "closure":
        (k,) = _need_subs(args, alphabet, 1)
        if args.algebraic:
            result = ext.algebraic_closure(k)
        elif args.malnormal:
            result = ext.malnormal_closure(k)
        else:
            result = ext.isolator(k)
        _emit_graph(result, args)
        return 0

    if verb == "isolated":
        (h,) = _need_subs(args, alphabet, 1)
        result = ext.is_isolated(h)
        cert: dict = {}
        if result.witness is not None:
            word, m = result.witness
            cert = {"witness": format_word(word), "power": m}
        return _answer(result.isolated, args, cert)

    if verb == "dot":
        (g,) = _need_subs(args, alphabet, 1)
        if args.dot:
            emit_dot(g.based, args.dot)
        else:
            print(to_dot(g.based), end="")
        return 0

    raise InvalidInputError(f"unknown verb {verb!r}")


if __name__ == "__main__":
    sys.exit(main())
