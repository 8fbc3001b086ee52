"""Shared test corpus: hand-picked presentations plus seeded random ones."""
import random

from gentle import parse_presentation, validate_gentle

A0 = """
algebra a0
vertices 1 2 3 4 5 6 7
arrow a1 : 1 -> 2
arrow a2 : 2 -> 3
arrow a3 : 2 -> 4
arrow a4 : 4 -> 5
arrow a5 : 5 -> 6
arrow a6 : 6 -> 7
rel a1 a3
"""

KRONECKER = """
algebra kronecker
vertices 1 2
arrow a : 1 -> 2
arrow b : 1 -> 2
"""

SQUARE = """
algebra square
vertices 1 2 3 4
arrow a : 1 -> 2
arrow b : 2 -> 4
arrow c : 1 -> 3
arrow d : 3 -> 4
"""

RELATION_CYCLE = """
algebra cyc3
vertices 1 2 3
arrow x : 1 -> 2
arrow y : 2 -> 3
arrow z : 3 -> 1
rel x y
rel y z
rel z x
"""

TWO_RELATION_CHAIN = """
algebra chain5
vertices 1 2 3 4 5
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow u : 4 -> 3
arrow v : 5 -> 4
rel a b
rel v u
"""

LINEAR_A5 = """
algebra line5
vertices 1 2 3 4 5
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 4
arrow d : 4 -> 5
"""

# Two relation 2-cycles through vertex 1.  The string x2 , ~x3 has vector
# {0: 3}, and no surgery of the reduction search reaches length 2 on it, in
# either direction.  It is not in HAND_SOURCES, whose witnesses all reduce.
TWO_RELATION_CYCLES = """
algebra cyc2x2
vertices 1 2 3
arrow x0 : 1 -> 2
arrow x1 : 1 -> 3
arrow x2 : 2 -> 1
arrow x3 : 3 -> 1
rel x0 x2
rel x2 x0
rel x1 x3
rel x3 x1
"""

HAND_SOURCES = {
    "a0": A0,
    "kronecker": KRONECKER,
    "square": SQUARE,
    "cyc3": RELATION_CYCLE,
    "chain5": TWO_RELATION_CHAIN,
    "line5": LINEAR_A5,
}


def random_gentle(seed, max_vertices=8, max_arrows=9):
    """A random validated gentle presentation.

    Arrows are added while vertex degrees stay at most two; for every
    composable pair of arrows at a vertex the generator then decides which
    compositions are relations, respecting the uniqueness axioms; draws
    with relation-free cycles are rejected and retried.
    """
    rng = random.Random(seed)
    for attempt in range(200):
        n = rng.randint(2, max_vertices)
        vertices = [str(i + 1) for i in range(n)]
        out_deg = dict.fromkeys(vertices, 0)
        in_deg = dict.fromkeys(vertices, 0)
        arrows = []
        target_count = rng.randint(1, max_arrows)
        for k in range(3 * target_count):
            if len(arrows) >= target_count:
                break
            s = rng.choice(vertices)
            t = rng.choice(vertices)
            if out_deg[s] >= 2 or in_deg[t] >= 2:
                continue
            name = f"r{len(arrows) + 1}"
            arrows.append((name, s, t))
            out_deg[s] += 1
            in_deg[t] += 1
        if not arrows:
            continue
        relations = _choose_relations(rng, vertices, arrows)
        lines = [f"algebra rnd{seed}", "vertices " + " ".join(vertices)]
        lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
        lines += [f"rel {a} {b}" for a, b in relations]
        pres = parse_presentation("\n".join(lines))
        if validate_gentle(pres).ok:
            return pres
    raise RuntimeError(f"no gentle draw for seed {seed}")


def _choose_relations(rng, vertices, arrows):
    incoming = {v: [a for a, _, t in arrows if t == v] for v in vertices}
    outgoing = {v: [a for a, s, _ in arrows if s == v] for v in vertices}
    relations = []
    for v in vertices:
        ins, outs = incoming[v], outgoing[v]
        if not ins or not outs:
            continue
        if len(ins) == 1 and len(outs) == 1:
            if rng.random() < 0.5:
                relations.append((ins[0], outs[0]))
        elif len(ins) == 1:
            # the single incoming arrow gets exactly one relation partner
            pick = rng.randrange(2)
            relations.append((ins[0], outs[pick]))
        elif len(outs) == 1:
            pick = rng.randrange(2)
            relations.append((ins[pick], outs[0]))
        else:
            # 2x2: relations form one of the two perfect matchings
            if rng.random() < 0.5:
                relations.append((ins[0], outs[0]))
                relations.append((ins[1], outs[1]))
            else:
                relations.append((ins[0], outs[1]))
                relations.append((ins[1], outs[0]))
    return relations


def load(source):
    pres = parse_presentation(source)
    report = validate_gentle(pres)
    assert report.ok, report.violations
    return pres


def full_corpus(random_count=14):
    """At least 20 validated gentle presentations, deterministic."""
    algebras = [load(src) for src in HAND_SOURCES.values()]
    algebras += [random_gentle(seed) for seed in range(random_count)]
    return algebras
