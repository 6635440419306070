"""Forward-chaining inference over group-property atoms.

Facts are (group, atom, polarity) triples.  Rules encode theorems, each with
a citation tag and a verbatim quote; derived facts carry replayable
certificate trees whose leaves are user assertions, database facts, or
structural facts read off a group's constructor.  Deriving both polarities of
the same atom raises ContradictionError with both certificates attached.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from typing import NamedTuple

from .atoms import ENDS_ATOMS, PropertyAtom
from .coxeter import CoxeterSystem, artin_one_ended, coxeter_ends
from .errors import ContradictionError
from .graph_products import (
    GraphProductSpec,
    VertexProfile,
    graph_product_ends,
    graph_product_semistable,
)
from .model import (
    Amalgam,
    Artin,
    CommensuratedPair,
    Coxeter,
    DirectProduct,
    Extension,
    Finite,
    Free,
    FreeAbelian,
    GraphProduct,
    GroupRegistry,
    HNN,
    Known,
)

A = PropertyAtom

ENDS_GROUP = tuple(ENDS_ATOMS.values())


class Certificate(NamedTuple):
    """One derived or asserted fact plus how it was obtained.  A named
    tuple: the fixpoint builds one per conclusion, and a tuple is built in
    about half the time of a frozen dataclass."""

    group: str
    atom: PropertyAtom
    holds: bool
    rule: Rule | None = None  # the theorem it cites; None for leaves
    provenance: str | None = None  # leaf origin or structural-hypothesis note
    children: tuple = ()


class FactSet:
    """Derived facts keyed by (group, atom, polarity), each with a certificate;
    `decided`, which maps each group a decider bridge ran on to that bridge's
    result on its last run; and how often the fixpoint ran each slot:
    `evaluations` counts runs per (group, i), where i numbers the rule table's
    clauses in order.  A plain clause (one without a `body`) that applies to
    the group counts 1 when its premises all hold at the fixpoint and is
    absent otherwise; a bridge counts its first run plus one per rerun."""

    def __init__(self):
        self._certs = {}
        self.decided = {}
        self.evaluations = Counter()

    def get(self, group, atom, holds=True):
        return self._certs.get((group, atom, holds))

    def add(self, cert: Certificate) -> bool:
        key = cert[:3]
        if key in self._certs:
            return False
        group, atom, holds = key
        opposite = (group, atom, not holds)
        if opposite in self._certs:
            other = self._certs[opposite]
            pos, neg = (cert, other) if holds else (other, cert)
            raise ContradictionError(group, atom, pos, neg)
        self._certs[key] = cert
        return True

    def certificate_map(self):
        """The dict from each fact (group, atom, holds) to its certificate, in
        the order the facts were added.  Callers read it and never change it."""
        return self._certs

    def __len__(self):
        return len(self._certs)

    def __iter__(self):
        return iter(self._certs)


G = "group"  # clause role: the group a rule fires on
V = "vertex"  # bridge role: each vertex group of a graph product


class Clause(NamedTuple):
    """One way a rule fires.  On a group built by `ctor` (any group when None)
    whose `guard` flag is set, once every premise (role, atom, holds) is
    derived, each conclusion (atom, holds) follows for the group in role
    `target`.  A role is G, V, an expression field such as "a", "base" or
    "kernel", or an index into a product's factors.  The premise certificates
    become the conclusion's children, in premise order.

    A clause with a `body` is a decider bridge instead: the fixpoint runs
    body(rule, registry, facts, group, expr), which yields certificates, once
    on each group built by `ctor`, and again after any of its premises (the
    facts it reads) is added."""

    ctor: object
    premises: tuple
    conclusions: tuple
    guard: str | None = None
    target: object = G
    note: str | None = None
    body: object = None


class Rule(NamedTuple):
    """A theorem with its citation tag and quote, stated as clauses."""

    name: str
    tag: str
    quote: str
    clauses: tuple


def _member(gname, expr, role):
    """Name of the group playing `role` in the expression of `gname`."""
    if role == G:
        return gname
    if isinstance(role, int):
        return expr.factors[role]
    return getattr(expr, role)


# --- Quotes (verbatim from the sources the rules encode) ---------------------

_Q = {
    "Stall": "The finitely generated group $G$ has more than 1-end if and only"
             " if $G$ splits as a non-trivial amalgamated product $A\\ast_CB$"
             " (so $A\\ne C\\ne B$) or an HNN-extension $A\\ast_C$ where $C$ is finite.",
    "M1": "If $H$ is an infinite, finitely generated, normal subgroup of"
          " infinite index in the finitely presented group $G$, then $G$ is"
          " semistable at $\\infty$.",
    "J": "If $H$ is an infinite, finitely presented, normal subgroup of"
         " infinite index in the finitely presented group $G$, and either $H$"
         " or $G/H$ is 1-ended. Then $G$ is simply connected at $\\infty$.",
    "MainCM": "If a finitely generated group $G$ has an infinite, finitely"
              " generated, commensurated subgroup $Q$, and $Q$ has infinite"
              " index in $G$, then $G$ is 1-ended and semistable at $\\infty$.",
    "L": "Suppose $H$ is an infinite,  finitely generated, subnormal subgroup"
         " of the finitely generated group $G$ ... and $H$ has infinite index"
         " in $G$. Then $G$ is 1-ended and semistable at $\\infty$.",
    "MainA": "Suppose $H$ is a finitely generated infinite subgroup of"
             " infinite index in the finitely generated group $G$, and  $H$ is"
             " subcommensurated in $G$ ... Then $G$ is 1-ended and semistable"
             " at infinity.",
    "MM": "Suppose $H$ is an infinite finitely presented group, $\\phi:H\\to H$"
          " is a monomorphism and $G=H\\ast_\\phi$ is the resulting ascending"
          " HNN extension. Then $G$ is 1-ended and semistable at $\\infty$. If"
          " additionally, $H$ is 1-ended, then $G$ is simply connected at $\\infty$.",
    "MMFIE": "Suppose $H_0$ is an infinite finitely generated group, $H_1$ is"
             " a subgroup of finite index in $H_0$, $\\phi:H_1\\to H_0$ is a"
             " monomorphism and $G=H_0\\ast_\\phi$ is the resulting HNN"
             " extension. Then $G$ is 1-ended.",
    "MTComb": "If $G$ is the fundamental group of a finite graph of groups"
              " where each vertex group is finitely presented with semistable"
              " fundamental group at $\\infty$, and each edge group is finitely"
              " generated, then $G$ has semistable fundamental group at $\\infty$.",
    "Fsplit": "Suppose the group $G$ has a graph of groups decomposition"
              " $\\mathcal G$ where each edge group is finite and each vertex"
              " group is finitely presented. The group $G$ has semistable"
              " fundamental group at $\\infty$  if and only if each vertex group"
              " of $\\mathcal G$ has semistable fundamental group at infinity.",
    "SSDecomp": "Suppose $G$ is the fundamental group of a connected reduced"
                " graph of groups, where each edge group is infinite and"
                " finitely generated, and each vertex group is finitely"
                " presented and either 1-ended and semistable at $\\infty$ or"
                " has an edge group of finite index. Then $G$ is 1-ended and"
                " semistable at $\\infty$.",
    "FIss": "Suppose $G$ is the amalgamated product $A\\ast_CB$ where $A$ and"
            " $B$ are finitely generated and $C$ has finite index in $A$ and"
            " $B$ (but $A\\ne C\\ne B$). Then $G$ is 1-ended and semistable at"
            " $\\infty$.",
    "OneR": "All 1-relator groups are semistable at $\\infty$.",
    "WHss": "All word hyperbolic groups are semistable at $\\infty$.",
    "metanil": "All finitely presented virtually metanilpotent groups are"
               " semistable at $\\infty$.",
    "NOF2": "Suppose $G$ is a finitely presented group which does not contain"
            " a free subgroup of rank 2, and suppose $\\mathbb Z\\oplus \\mathbb Z$"
            " is a quotient of $G$. Then $G$ is 1-ended and has semistable"
            " fundamental group at $\\infty$.",
    "HMSSMain": "Suppose $G$ is a  finitely presented group that is hyperbolic"
                " relative to a collection of finitely generated subgroups"
                " ${\\bf P}=\\{P_1,\\ldots, P_n\\}$. If each $P_i$ has semistable"
                " fundamental group at $\\infty$ then $G$ has semistable"
                " fundamental group at $\\infty$.",
    "combE": "Suppose $G$ is a finitely generated group, $A$ and $B$ are"
             " finitely generated 1 or 2-ended subgroups of $G$, $A\\cup B$"
             " generates $G$ and $A\\cap B$ is infinite. Then $G$ is 1 or 2-ended.",
    "GM2": "The group $H^2(G,\\mathbb ZG)$ is free abelian if and only if"
           " $ H_1(\\varepsilon\\tilde X^2)$ is semistable.",
    "GM2sc": "Corollary \\ref{GM2} implies that if a finitely presented group"
             " $G$ is simply connected at $\\infty$, then $H^2(G,\\mathbb ZG)=0$.",
    "Reduction": "The group $H^2(G,\\mathbb ZG)$ is isomorphic to the direct"
                 " sum $\\oplus_{i=1}^nA_i$, where $A_i$ is isomorphic to"
                 " $\\oplus _{[H_i:G]}H^2(H_i,\\mathbb ZH_i)$.",
    "JHom": "Suppose $G=G_1\\ast_SG_2$ or $G=G_1\\ast_S$ where $G_i$ is"
            " finitely presented and 1-ended and $S$ is finitely generated with"
            " more than 1 end. Then $H^2(G, \\mathbb ZG)$ is non-trivial.",
    "SCtoSS": "If $X$ is simply connected at $\\infty$ then $X$ is semistable"
              " at $\\infty$.",
    "stablepro": "Suppose $G$ is a finitely presented group and"
                 " $\\pi_1(\\varepsilon G)$, the fundamental pro-group of $G$,"
                 " is stable. Then either $G$ is simply connected at $\\infty$"
                 " or $G$ is virtually a closed surface group and"
                 " $\\pi_1(\\varepsilon G)$ is pro-isomorphic to an inverse"
                 " sequence where each group is $\\mathbb Z$ and each bonding"
                 " map is an isomorphism.",
    "free": "Every finitely generated infinite ended group contains a free"
            " group on 2-generators. So every solvable group is either finite,"
            " 1-ended or 2-ended.",
    "JackI": "Suppose $G=G_1\\ast_HG_2$ where $G_1$ and $G_2$ are finitely"
             " presented and 1-ended and $H$ is finitely generated with more"
             " than 1-end, then $G$ has 1-end but is not stable at $\\infty$.",
    "JackIi": "Suppose $G=G_1\\ast_HG_2$ where $G_1$ and $G_2$ are finitely"
              " presented 1-ended and simply connected at $\\infty$ and $H$ is"
              " finitely generated and 1-ended. Then $G$ is simply connected"
              " at $\\infty$.",
    "JackII": "Suppose $G$ is the HNN group $G_1 \\ast _{f:H\\to K}$ where"
              " $G_1$ is finitely presented and 1-ended and $H$ is finitely"
              " generated with more than 1-end, then $G$ is 1-ended, but is"
              " not stable at $\\infty$.",
    "JackIIi": "Suppose $G$ is the HNN group $G_1 \\ast _{f:H\\to K}$ where"
               " $G_1$ is finitely presented, 1-ended and simply connected at"
               " $\\infty$. If $H$ is finitely generated and 1-ended, then $G$"
               " is 1-ended and simply connected at $\\infty$",
    "sc": "Suppose the recursively presented group $G$ is finitely generated"
          " and isomorphic to $A\\times B$ where $A$ and $B$ are finitely"
          " generated infinite groups and $A$ is 1-ended. Then $G$ is simply"
          " connected at $\\infty$.",
    "E3inf": "Then $X$ has $0$, $1$, $2$ or infinitely many ends.",
    "CoxE": "Suppose $W$ is  a finitely generated Coxeter group with"
            " presentation diagram $\\Lambda$. Then $W$ has more than one end"
            " if and only if $\\Lambda$ contains a complete separating"
            " subgraph, the vertices of which generate a finite subgroup of $W$.",
    "Cox2E": "A finitely generated Coxeter group with system $(W,S)$ and"
             " corresponding diagram $\\Lambda$ is 2-ended if and only if"
             " $\\Lambda$ contains a separating subdiagram $\\Lambda_0$ whose"
             " vertices generate a finite group, and $\\Lambda-\\Lambda_0$"
             " consists of two vertices each of which is connected to each"
             " vertex of $\\Lambda_0$ by edges labeled 2 (but not connected to"
             " each other).",
    "ArtinE": "If $G$ is an Artin group on a connected Artin diagram with at"
              " least 2 vertices, then $G$ is 1-ended.",
    "ACSS": "All finitely generated Artin groups and Coxeter groups are"
            " semistable at $\\infty$.",
    "OV": "(i) $\\Gamma$ is a complete graph such that one vertex group has"
          " more than one end and all others are finite, or (ii) $G$ visually"
          " splits over a finite group.",
    "GraphP": "Then $G$ does not have semistable fundamental group at $\\infty$"
              " if and only if there is a vertex $v$ of $\\Lambda$ such that:"
              " (1) $G_v$ does not have semistable fundamental group at"
              " $\\infty$ and (2) the link of $v$ is a complete graph with each"
              " vertex group finite.",
    "LNss": "The lamplighter group is not semistable at $\\infty$.",
    "ExLsc": "The extended lamplighter group ... is simply connected at $\\infty$.",
    "TGF": "Theorem \\ref{MM} implies $F$ is simply connected at $\\infty$",
    "SLn": "For $n>2$, the group $SL_n(\\mathbb Z[{1\\over p}])$ is 1-ended and"
           " simply connected at $\\infty$.",
    "DavisEx": "Hence, when $G$ is the fundamental group of such a manifold,"
               " $G$ is not simply connected at $\\infty$. ... This implies"
               " $H^2(G,\\mathbb ZG)=0$.",
    "scGrig": "Theorem \\ref{sc} implies the finitely generated group $G$ is"
              " simply connected at $\\infty$.",
    "SDSSI": "If $G$ is an infinite finitely generated group then"
             " $\\mathfrak{X}(G)$ is 1-ended and semistable at infinity.",
    "BSmn": "The Baumslag-Solitar groups $BS(m,n)=\\langle x,t  \\ |\\ "
            " t^{-1} x^mt=x^n\\rangle$ are 1-ended and semistable at $\\infty$.",
}


# --- Known-groups database ----------------------------------------------------

def known_groups_db():
    """Seeded facts about catalog groups: name -> ((atom, holds, tag), ...)."""
    return {
        "lamplighter": (
            (A.SEMISTABLE, False, "LNss"),
            (A.FG, True, "LNss"),
            (A.FP, False, "LNss"),
            (A.INFINITE, True, "LNss"),
        ),
        "extended_lamplighter": (
            (A.SC_INF, True, "ExLsc"),
            (A.FP, True, "ExLsc"),
            (A.INFINITE, True, "ExLsc"),
        ),
        "thompson_F": (
            (A.SC_INF, True, "TGF"),
            (A.FP, True, "TGF"),
            (A.FG, True, "TGF"),
            (A.INFINITE, True, "TGF"),
        ),
        "SLn_Z_1_over_p": (
            (A.SC_INF, True, "SLn"),
            (A.ENDS_ONE, True, "SLn"),
            (A.FP, True, "SLn"),
            (A.INFINITE, True, "SLn"),
        ),
        "davis_examples": (
            (A.SC_INF, False, "DavisEx"),
            (A.H2_TRIVIAL, True, "DavisEx"),
            (A.FP, True, "DavisEx"),
            (A.INFINITE, True, "DavisEx"),
        ),
        "grigorchuk": (
            (A.SC_INF, True, "scGrig"),
            (A.FG, True, "scGrig"),
            (A.FP, False, "scGrig"),
            (A.INFINITE, True, "scGrig"),
        ),
        "sidki_double_F3": (
            (A.ENDS_ONE, True, "SDSSI"),
            (A.SEMISTABLE, True, "SDSSI"),
            (A.FG, True, "SDSSI"),
            (A.INFINITE, True, "SDSSI"),
        ),
    }


# --- Structural facts from constructors ---------------------------------------

def _constructor_facts(expr):
    """The provenance and the atoms that hold for a finite, Coxeter, Artin,
    free or free abelian group, read off its constructor; (None, ()) for the
    other constructors."""
    if isinstance(expr, Finite):
        why = f"structural: finite of order {expr.order}"
        return why, (A.FINITE, A.FG, A.FP, A.SEMISTABLE, A.SC_INF)
    if isinstance(expr, (Coxeter, Artin)):
        return "structural: finite presentation diagram", (A.FG, A.FP)
    if not isinstance(expr, (Free, FreeAbelian)):
        return None, ()
    free = isinstance(expr, Free)
    why = f"structural: {'free' if free else 'free abelian'} of rank {expr.rank}"
    if expr.rank == 0:
        by_rank = (A.FINITE, A.SEMISTABLE)
    elif expr.rank == 1:
        by_rank = (A.INFINITE, A.ENDS_TWO, A.SOLVABLE, A.NO_F2_SUBGROUP)
    elif free:
        by_rank = (A.INFINITE, A.ENDS_INFINITE, A.WORD_HYPERBOLIC)
    else:
        by_rank = (A.INFINITE, A.SOLVABLE, A.NO_F2_SUBGROUP, A.HAS_ZXZ_QUOTIENT)
    return why, (A.FG, A.FP) + by_rank


def structural_facts(registry: GroupRegistry):
    """Facts that follow directly from a group's constructor."""
    db = known_groups_db()
    out = []
    for name, expr in registry.groups.items():
        if isinstance(expr, Known):
            out += [Certificate(name, atom, holds,
                                provenance=f"database: {expr.name} [{tag}] {_Q[tag]}")
                    for atom, holds, tag in db.get(expr.name, ())]
        else:
            why, atoms = _constructor_facts(expr)
            out += [Certificate(name, atom, True, provenance=why) for atom in atoms]
    return out


# --- Rule table -----------------------------------------------------------------

def _on(role, *atoms, holds=True):
    """Premises: each atom holds (or, with holds=False, fails) in `role`."""
    return tuple((role, atom, holds) for atom in atoms)


def _then(*atoms, holds=True):
    """Conclusions: each atom holds (or fails) for the clause's target."""
    return tuple((atom, holds) for atom in atoms)


def _one_clause(premises, conclusions):
    """The one clause of a rule whose atoms all live on the target group."""
    return (Clause(None, _on(G, *premises), conclusions),)


def _coxeter_ends_bridge(rule, registry, facts, gname, expr):
    report = facts.decided[gname] = coxeter_ends(CoxeterSystem(expr.diagram))
    note = f"decider witness: {report.witness}"
    yield Certificate(gname, ENDS_ATOMS[report.ends], True, rule, note)


def _artin_ends_bridge(rule, registry, facts, gname, expr):
    report = facts.decided[gname] = artin_one_ended(expr.diagram)
    yield Certificate(gname, ENDS_ATOMS[report.ends], True, rule)


# R-GP's reads of a vertex group's facts, which are also its premises: for
# each VertexProfile field, (atom, holds, value) rows; the first derived sets it.
_VERTEX_READS = (
    ("finite", ((A.FINITE, True, True), (A.INFINITE, True, False))),
    ("ends", tuple((atom, True, count) for count, atom in ENDS_ATOMS.items())),
    ("semistable", ((A.SEMISTABLE, True, True), (A.SEMISTABLE, False, False))),
    ("finitely_presented", ((A.FP, True, True), (A.FP, False, False))),
)


def _vertex_profile(registry, facts, ref):
    """The VertexProfile of a referenced group read off the derived facts by
    _VERTEX_READS, and the certificates of the facts it read."""
    fields, used = {}, []
    for field, reads in _VERTEX_READS:
        for atom, holds, value in reads:
            if (cert := facts.get(ref, atom, holds)) is not None:
                fields[field] = value
                used.append(cert)
                break
    expr = registry.groups.get(ref)
    if isinstance(expr, Finite):
        fields["order"] = expr.order
    return VertexProfile(**fields), used


def _graph_product_bridge(rule, registry, facts, gname, expr):
    """Runs the graph-product deciders on the vertex profiles read off the
    facts and records (ends report, semistability report) as the group's
    decision.  A graph product on no vertices is the trivial group, decided
    like any other: 0 ends and semistable."""
    profiles, children = {}, []
    for vertex, ref in expr.vertex_groups:
        profiles[vertex], used = _vertex_profile(registry, facts, ref)
        children += used
    children = tuple(children)
    spec = GraphProductSpec(expr.graph, profiles)
    ends, ss = facts.decided[gname] = graph_product_ends(spec), graph_product_semistable(spec)
    if ends.ends is not None:
        note = f"decider witness: {ends.witness}"
        yield Certificate(gname, ENDS_ATOMS[ends.ends], True, rule, note, children)
    if ss.verdict == "semistable":
        yield Certificate(gname, A.SEMISTABLE, True, rule, None, children)
    elif ss.verdict == "not_semistable":
        note = f"decider witness: {ss.witness}"
        yield Certificate(gname, A.SEMISTABLE, False, rule, note, children)


_RULES = (
    Rule("R-1REL", "OneR", _Q["OneR"], _one_clause([A.ONE_RELATOR], _then(A.SEMISTABLE))),
    Rule("R-HYP", "WHss", _Q["WHss"], _one_clause([A.WORD_HYPERBOLIC], _then(A.SEMISTABLE))),
    Rule("R-METANIL", "metanil", _Q["metanil"], _one_clause(
        [A.VIRTUALLY_METANILPOTENT, A.FP], _then(A.SEMISTABLE))),
    Rule("R-NOF2", "NOF2", _Q["NOF2"], _one_clause(
        [A.FP, A.NO_F2_SUBGROUP, A.HAS_ZXZ_QUOTIENT], _then(A.ENDS_ONE, A.SEMISTABLE))),
    Rule("R-RELHYP", "HMSSMain", _Q["HMSSMain"], _one_clause(
        [A.FP, A.REL_HYP_WITH_SEMISTABLE_PERIPHERALS], _then(A.SEMISTABLE))),
    Rule("R-SC2SS", "SCtoSS", _Q["SCtoSS"], _one_clause([A.SC_INF], _then(A.SEMISTABLE))),
    Rule("R-GM2", "GM2", _Q["GM2"], _one_clause(
        [A.SEMISTABLE, A.FP], _then(A.H1_EPS_SEMISTABLE, A.H2_FREE_ABELIAN))),
    Rule("R-GM2-SC", "GM2", _Q["GM2sc"], _one_clause([A.SC_INF, A.FP], _then(A.H2_TRIVIAL))),
    Rule("R-BOWDITCH", "stablepro", _Q["stablepro"], _one_clause(
        [A.PRO_GROUP_STABLE, A.FP], _then(A.SEMISTABLE))),
    Rule("R-SCFREE", "free", _Q["free"], _one_clause(
        [A.FG, A.NO_F2_SUBGROUP], _then(A.ENDS_INFINITE, holds=False))),
    Rule("R-SOLV", "free", _Q["free"], _one_clause([A.SOLVABLE], _then(A.NO_F2_SUBGROUP))),
    Rule("R-SUBNORM", "L", _Q["L"], _one_clause(
        [A.FG, A.SUBNORMAL_CHAIN_WITNESS], _then(A.ENDS_ONE, A.SEMISTABLE))),
    Rule("R-SUBCOMM", "MainA", _Q["MainA"], _one_clause(
        [A.FG, A.SUBCOMMENSURATED_CHAIN_WITNESS], _then(A.ENDS_ONE, A.SEMISTABLE))),
    Rule("R-M1-ATOM", "M1", _Q["M1"], _one_clause(
        [A.FP, A.NORMAL_INF_FG_INF_INDEX_SUBGROUP], _then(A.SEMISTABLE))),
    Rule("R-COMM-ATOM", "MainCM", _Q["MainCM"], _one_clause(
        [A.FG, A.COMMENSURATED_INF_FG_INF_INDEX_SUBGROUP], _then(A.ENDS_ONE, A.SEMISTABLE))),
    Rule("R-AHNN-ATOM", "MM", _Q["MM"], _one_clause(
        [A.ASCENDING_HNN_OF_INF_FP_BASE], _then(A.ENDS_ONE, A.SEMISTABLE))),
    Rule("R-AHNN-ATOM-SC", "MM", _Q["MM"], _one_clause(
        [A.ASCENDING_HNN_OF_INF_FP_BASE, A.ASCENDING_HNN_BASE_ONE_ENDED], _then(A.SC_INF))),
    # Bookkeeping with citations to the end-count trichotomy.
    Rule("R-ENDS-EXCL", "E3inf", _Q["E3inf"], tuple(
        Clause(None, _on(G, atom), _then(*(e for e in ENDS_GROUP if e is not atom), holds=False))
        for atom in ENDS_GROUP
    )),
    Rule("R-FIN", "E3inf", _Q["E3inf"], (
        Clause(None, _on(G, A.FINITE), ((A.ENDS_ZERO, True), (A.INFINITE, False))),
        Clause(None, _on(G, A.ENDS_ZERO), _then(A.FINITE)),
        Clause(None, _on(G, A.INFINITE), _then(A.FINITE, A.ENDS_ZERO, holds=False)),
    ) + tuple(
        Clause(None, _on(G, atom), _then(A.INFINITE)) for atom in ENDS_GROUP[1:]
    )),
    # Structure-driven rules.
    Rule("R-STALLINGS", "Stall", _Q["Stall"], (
        Clause(Amalgam, (), _then(A.ENDS_ZERO, A.ENDS_ONE, holds=False), "edge_finite",
               note="constructor: non-trivial amalgam with finite edge group"),
    )),
    Rule("R-FI-AMALG", "FIss", _Q["FIss"], (
        Clause(Amalgam, _on("a", A.FG) + _on("b", A.FG), _then(A.ENDS_ONE, A.SEMISTABLE),
               "c_index_finite_in_both",
               note="constructor: edge group of finite index in both factors"),
    )),
    Rule("R-COMBE", "combE", _Q["combE"], tuple(
        Clause(Amalgam, _on("a", A.FG, low_a) + _on("b", A.FG, low_b) + _on("c", A.INFINITE, A.FG),
               _then(A.ENDS_ZERO, A.ENDS_INFINITE, holds=False))
        for low_a in (A.ENDS_ONE, A.ENDS_TWO) for low_b in (A.ENDS_ONE, A.ENDS_TWO)
    )),
    Rule("R-GOG-SS", "MTComb", _Q["MTComb"], (
        Clause(Amalgam, _on("a", A.FP, A.SEMISTABLE) + _on("b", A.FP, A.SEMISTABLE)
               + _on("c", A.FG), _then(A.SEMISTABLE)),
    )),
    Rule("R-GOG-FIN", "Fsplit", _Q["Fsplit"], (
        Clause(Amalgam, _on("a", A.FP) + _on("b", A.FP) + _on("a", A.SEMISTABLE)
               + _on("b", A.SEMISTABLE), _then(A.SEMISTABLE), "edge_finite"),
    ) + tuple(
        Clause(Amalgam, _on("a", A.FP) + _on("b", A.FP) + _on(part, A.SEMISTABLE, holds=False),
               _then(A.SEMISTABLE, holds=False), "edge_finite")
        for part in ("a", "b")
    )),
    Rule("R-GOG-DEC", "SSDecomp", _Q["SSDecomp"], (
        Clause(Amalgam, _on("c", A.INFINITE, A.FG) + _on("a", A.FP, A.ENDS_ONE, A.SEMISTABLE)
               + _on("b", A.FP, A.ENDS_ONE, A.SEMISTABLE), _then(A.ENDS_ONE, A.SEMISTABLE),
               "reduced", note="constructor: reduced graph of groups"),
    )),
    Rule("R-JACKI", "JackI", _Q["JackI"], (
        Clause(Amalgam, _on("a", A.FP, A.ENDS_ONE) + _on("b", A.FP, A.ENDS_ONE)
               + _on("c", A.FG, A.ENDS_INFINITE), _then(A.ENDS_ONE)),
    )),
    Rule("R-JACKII", "JackII", _Q["JackII"], (
        Clause(HNN, _on("base", A.FP, A.ENDS_ONE) + _on("assoc", A.FG, A.ENDS_INFINITE),
               _then(A.ENDS_ONE)),
    )),
    Rule("R-JHOM", "JHom", _Q["JHom"], (
        Clause(Amalgam, _on("a", A.FP, A.ENDS_ONE) + _on("b", A.FP, A.ENDS_ONE)
               + _on("c", A.FG, A.ENDS_INFINITE), _then(A.H2_NONTRIVIAL)),
        Clause(HNN, _on("base", A.FP, A.ENDS_ONE) + _on("assoc", A.FG, A.ENDS_INFINITE),
               _then(A.H2_NONTRIVIAL)),
    )),
    Rule("R-JACKIi", "JackIi", _Q["JackIi"], (
        Clause(Amalgam, _on("a", A.FP, A.ENDS_ONE, A.SC_INF) + _on("b", A.FP, A.ENDS_ONE, A.SC_INF)
               + _on("c", A.FG, A.ENDS_ONE), _then(A.SC_INF)),
    )),
    Rule("R-JACKIIi", "JackIIi", _Q["JackIIi"], (
        Clause(HNN, _on("base", A.FP, A.ENDS_ONE, A.SC_INF) + _on("assoc", A.FG, A.ENDS_ONE),
               _then(A.ENDS_ONE, A.SC_INF)),
    )),
    Rule("R-H2RED", "Reduction", _Q["Reduction"], tuple(
        Clause(Amalgam, _on("a", atom) + _on("b", atom), _then(atom), "edge_finite")
        for atom in (A.H2_TRIVIAL, A.H2_FREE_ABELIAN)
    )),
    Rule("R-AHNN", "MM", _Q["MM"], (
        Clause(HNN, _on("base", A.INFINITE, A.FP), _then(A.ENDS_ONE, A.SEMISTABLE),
               "ascending", note="constructor: ascending HNN extension"),
        Clause(HNN, _on("base", A.INFINITE, A.FP, A.ENDS_ONE), _then(A.SC_INF),
               "ascending", note="constructor: ascending HNN extension"),
    )),
    Rule("R-HNN-FI", "MMFIE", _Q["MMFIE"], (
        Clause(HNN, _on("base", A.INFINITE, A.FG), _then(A.ENDS_ONE), "finite_index_image",
               note="constructor: associated subgroup of finite index in the base"),
    )),
    Rule("R-M1", "M1", _Q["M1"], (
        Clause(Extension, _on("kernel", A.INFINITE, A.FG) + _on("quotient", A.INFINITE)
               + _on(G, A.FP), _then(A.SEMISTABLE),
               note="infinite quotient gives the kernel infinite index"),
    )),
    Rule("R-JACKSON", "J", _Q["J"], tuple(
        Clause(Extension, _on("kernel", A.INFINITE, A.FP) + _on("quotient", A.INFINITE)
               + _on(G, A.FP) + _on(one_ended, A.ENDS_ONE), _then(A.SC_INF))
        for one_ended in ("kernel", "quotient")
    )),
    Rule("R-COMM", "MainCM", _Q["MainCM"], (
        Clause(CommensuratedPair, _on("ambient", A.FG) + _on("subgroup", A.INFINITE, A.FG),
               _then(A.ENDS_ONE, A.SEMISTABLE), "infinite_index", target="ambient",
               note="constructor: commensurated subgroup of infinite index"),
    )),
    Rule("R-SCPROD", "sc", _Q["sc"], tuple(
        Clause(DirectProduct, _on(G, A.FG, A.RECURSIVELY_PRESENTED)
               + _on(first, A.FG, A.INFINITE, A.ENDS_ONE) + _on(1 - first, A.FG, A.INFINITE),
               _then(A.SC_INF), "binary")
        for first in (0, 1)
    )),
    # Bridges to the structural deciders.
    Rule("R-COXE", "CoxE", _Q["CoxE"] + " / " + _Q["Cox2E"], (
        Clause(Coxeter, (), (), body=_coxeter_ends_bridge),
    )),
    Rule("R-ARTINE", "ArtinE", _Q["ArtinE"], (Clause(Artin, (), (), body=_artin_ends_bridge),)),
    Rule("R-ACSS", "ACSS", _Q["ACSS"], (Clause((Coxeter, Artin), (), _then(A.SEMISTABLE)),)),
    Rule("R-GP", "OV", _Q["OV"] + " / " + _Q["GraphP"], (
        Clause(GraphProduct, tuple((V, atom, holds) for _, reads in _VERTEX_READS
                                   for atom, holds, _ in reads), (), body=_graph_product_bridge),
    )),
)


def builtin_rules():
    """The rule table, in firing order."""
    return _RULES


# --- Engine -----------------------------------------------------------------------

# One slot per clause, in table order.  The fixpoint is the sweep that visits
# the groups in registry order and, for each, its slots in turn; every round
# of a naive loop repeats that sweep.
_SLOTS = tuple((rule, clause) for rule in _RULES for clause in rule.clauses)


# The guard flag names of the table; a group's set flags key its _shape.
_GUARDS = tuple(dict.fromkeys(clause.guard for _, clause in _SLOTS if clause.guard))


# How many premises each slot waits for: a plain clause runs once it has seen
# them all; 0 for a bridge, which runs after each premise instead.
_NEEDS = tuple(0 if clause.body is not None else len(clause.premises) for _, clause in _SLOTS)


@functools.cache
def _shape(cls, on):
    """The slots of the table for a group built by `cls` whose set guard flags
    are `on`: those that run once whatever the facts (bridges and clauses
    without premises); for each premise (role, atom, holds), the slots that
    read it, in table order; and the roles they name.  Built on first use,
    once per constructor class and setting of its flags."""
    unprompted, readers, roles = [], {}, {}
    for i, (_, clause) in enumerate(_SLOTS):
        ctor, guard, premises = clause.ctor, clause.guard, clause.premises
        if ctor is not None and not issubclass(cls, ctor) or guard is not None and guard not in on:
            continue
        if clause.body is not None or not premises:
            unprompted.append(i)
        roles[clause.target] = None
        for premise in premises:
            roles[premise[0]] = None
            readers.setdefault(premise, []).append(i)
    return tuple(unprompted), {p: tuple(ids) for p, ids in readers.items()}, tuple(roles)


def _saturate(registry, facts):
    """Evaluation of the sweep in which each plain clause (one without a
    `body`) runs once on a group, when its last premise arrives (the counting
    algorithm of Dowling & Gallier 1984).  Every (group, slot) counts the
    premise facts it has seen, once per premise entry and role, so that
    amalgam(G, G, Z) counts G's facts for `a` and for `b`.  When the count
    reaches the number of premises, the slot runs where the sweep would
    first see its last premise: later in the same sweep when the slot comes
    after the one that added that fact, else in the next sweep.  A bridge
    runs there after each fact it reads is added.  The facts present at the
    start count as added before the first sweep, and bridges and clauses
    without premises run once in it.  A run of the sweep that misses a
    premise, or repeats one whose reads are unchanged, concludes nothing
    new, so every fact keeps the naive loop's first derivation and a
    contradiction surfaces at the same step.  A conclusion whose fact is
    already present is skipped before its certificate is built."""
    groups = list(registry.groups.items())
    width = len(_SLOTS)
    sweep = len(groups) * width  # positions per round; a position is gi * width + slot
    names, readers, refs, first = [], [], {}, set()
    for gi, (gname, expr) in enumerate(groups):
        on = tuple(flag for flag in _GUARDS if getattr(expr, flag, False))
        unprompted, slot_readers, roles = _shape(type(expr), on)
        members = {}
        for role in roles:
            if role == V:
                for _, ref in expr.vertex_groups:
                    refs.setdefault(ref, set()).add((gi, V))
            else:
                members[role] = _member(gname, expr, role)
                refs.setdefault(members[role], set()).add((gi, role))
        names.append(members)
        readers.append(slot_readers)
        first.update(gi * width + i for i in unprompted)

    queue = sorted(first)  # a heap of times, round * sweep + position
    pending = set(queue)  # queued to run: the first sweep, then the bridges wake() queues
    seen = [0] * sweep  # premise facts each plain clause has seen, by position

    def wake(group, atom, holds, now, pos):
        """Queue what the fact (group, atom, holds), added at time `now` by
        the slot at position `pos`, makes due: the plain clauses it gives
        their last premise, and the bridges that read it and are not queued."""
        for hi, role in refs.get(group, ()):
            for j in readers[hi].get((role, atom, holds), ()):
                later = hi * width + j
                if need := _NEEDS[j]:
                    seen[later] += 1
                    if seen[later] < need:
                        continue
                elif later in pending:
                    continue
                else:
                    pending.add(later)
                heapq.heappush(queue, now - pos + later + (0 if later > pos else sweep))

    for group, atom, holds in facts:
        wake(group, atom, holds, -1, -1)  # just before the first sweep
    certs = facts.certificate_map()
    runs = {}  # position -> times run
    while queue:
        now = heapq.heappop(queue)
        pos = now % sweep
        pending.discard(pos)
        runs[pos] = runs.get(pos, 0) + 1
        gi, i = divmod(pos, width)
        rule, clause = _SLOTS[i]
        if clause.body is not None:
            new = clause.body(rule, registry, facts, *groups[gi])
        else:
            members, note = names[gi], clause.note
            children = tuple([certs[members[role], atom, holds]
                              for role, atom, holds in clause.premises])
            target = members[clause.target]
            new = [Certificate(target, atom, holds, rule, note, children)
                   for atom, holds in clause.conclusions if (target, atom, holds) not in certs]
        for cert in new:
            if facts.add(cert):
                wake(cert.group, cert.atom, cert.holds, now, pos)
    facts.evaluations.update({
        (groups[pos // width][0], pos % width): n for pos, n in runs.items()
    })


def infer(registry: GroupRegistry) -> FactSet:
    """Least fixpoint of the rule table over asserted, database and structural
    facts.  Raises ContradictionError when both polarities of a fact appear.
    Each decider bridge records its result per group in the result's
    `decided`."""
    facts = FactSet()
    for cert in structural_facts(registry):
        facts.add(cert)
    for assertions in registry.assertions.values():
        for a in assertions:
            facts.add(Certificate(a.target, a.atom, a.holds, provenance="user assertion"))
    _saturate(registry, facts)
    return facts


def replay(registry: GroupRegistry, facts: FactSet) -> bool:
    """Re-derive the fact set from its leaf certificates: the assertions,
    database and structural facts, which are what `infer` seeds from the
    registry.  Returns True when the replayed fixpoint equals the original
    fact set."""
    return set(infer(registry)) == set(facts)
