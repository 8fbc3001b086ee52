"""Seeded benchmark inputs: gentle presentations as `.alg` source text.

Seed 0 reproduces the acceptance corpus exactly: six hand-written algebras
plus the random draws 0..13.  Any other seed keeps the six hand-written
algebras and the two heavy draws rnd5 and rnd7, and replaces the other
twelve draws by fresh ones that no other seed uses.

Why the heavy draws stay: rnd5 alone is 85% of the corpus spectrum time,
and a corpus drawn whole from another seed moved that time from 1.3 s to
28.7 s (seeds 2 and 6 of a probe), which no per-seed spread bound survives.
The twelve fresh draws are size-matched to the twelve they replace (same
count of strings at bound 6, within 30%), so every seed does about the
same work while its outputs differ.

The generator is a copy of `tests/corpus.random_gentle`, so the benchmark
inputs do not move when the test corpus changes; the self-test checks that
seed 0 still equals it.
"""
import random

from gentle import enumerate_gst, parse_presentation, validate_gentle

HAND_SOURCES = {
    "a0": """
algebra a0
vertices 1 2 3 4 5 6 7
arrow a1 : 1 -> 2
arrow a2 : 2 -> 3
arrow a3 : 2 -> 4
arrow a4 : 4 -> 5
arrow a5 : 5 -> 6
arrow a6 : 6 -> 7
rel a1 a3
""",
    "kronecker": """
algebra kronecker
vertices 1 2
arrow a : 1 -> 2
arrow b : 1 -> 2
""",
    "square": """
algebra square
vertices 1 2 3 4
arrow a : 1 -> 2
arrow b : 2 -> 4
arrow c : 1 -> 3
arrow d : 3 -> 4
""",
    "cyc3": """
algebra cyc3
vertices 1 2 3
arrow x : 1 -> 2
arrow y : 2 -> 3
arrow z : 3 -> 1
rel x y
rel y z
rel z x
""",
    "chain5": """
algebra chain5
vertices 1 2 3 4 5
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow u : 4 -> 3
arrow v : 5 -> 4
rel a b
rel v u
""",
    "line5": """
algebra line5
vertices 1 2 3 4 5
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 4
arrow d : 4 -> 5
""",
}

CORPUS_DRAWS = 14
ANCHORS = (5, 7)
# strings at bound 6 of the corpus draws other than the anchors, largest first
TAIL_PROFILE = (109, 70, 63, 42, 42, 39, 28, 21, 8, 7, 6, 3)
MATCH_TOLERANCE = 1.3
# seed s >= 1 draws from random_gentle(STREAM * s + j), j < STREAM
STREAM = 1000


def load(source):
    """Parse and validate one presentation; the corpus holds only gentle ones."""
    pres = parse_presentation(source)
    report = validate_gentle(pres)
    if not report.ok:
        raise ValueError(f"corpus presentation {pres.name} is not gentle")
    return pres


def random_source(draw, max_vertices=8, max_arrows=9):
    """Source text of a random gentle presentation (see tests/corpus.py)."""
    rng = random.Random(draw)
    for _ in range(200):
        n = rng.randint(2, max_vertices)
        vertices = [str(i + 1) for i in range(n)]
        out_deg = dict.fromkeys(vertices, 0)
        in_deg = dict.fromkeys(vertices, 0)
        arrows = []
        target_count = rng.randint(1, max_arrows)
        for _ in range(3 * target_count):
            if len(arrows) >= target_count:
                break
            s = rng.choice(vertices)
            t = rng.choice(vertices)
            if out_deg[s] >= 2 or in_deg[t] >= 2:
                continue
            arrows.append((f"r{len(arrows) + 1}", s, t))
            out_deg[s] += 1
            in_deg[t] += 1
        if not arrows:
            continue
        relations = _choose_relations(rng, vertices, arrows)
        lines = [f"algebra rnd{draw}", "vertices " + " ".join(vertices)]
        lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
        lines += [f"rel {a} {b}" for a, b in relations]
        source = "\n".join(lines)
        if validate_gentle(parse_presentation(source)).ok:
            return source
    raise RuntimeError(f"no gentle draw for {draw}")


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
            relations.append((ins[0], outs[rng.randrange(2)]))
        elif len(outs) == 1:
            relations.append((ins[rng.randrange(2)], outs[0]))
        elif rng.random() < 0.5:
            relations.append((ins[0], outs[0]))
            relations.append((ins[1], outs[1]))
        else:
            relations.append((ins[0], outs[1]))
            relations.append((ins[1], outs[0]))
    return relations


def corpus_sources(seed):
    """The seed's presentations as source text, in a fixed order."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    sources = list(HAND_SOURCES.values())
    if seed == 0:
        return sources + [random_source(k) for k in range(CORPUS_DRAWS)]
    sources += [random_source(k) for k in ANCHORS]
    drawn = {}  # draw -> (source, strings at bound 6)
    taken = set()
    for target in TAIL_PROFILE:
        for j in range(STREAM):
            draw = STREAM * seed + j
            if draw in taken:
                continue
            if draw not in drawn:
                source = random_source(draw)
                drawn[draw] = source, len(enumerate_gst(load(source), 6).walks)
            source, size = drawn[draw]
            if target / MATCH_TOLERANCE <= size <= target * MATCH_TOLERANCE:
                taken.add(draw)
                sources.append(source)
                break
        else:
            raise RuntimeError(f"seed {seed}: no draw matches {target} strings")
    return sources

