"""The array-shaped workspace build against the per-concept loops it replaced.

``retrofit`` runs its sweeps over slot arrays and the hierarchy noise of the
text embeddings and the visual world is drawn in one ``rng.normal`` call.
Both promise the exact bytes of the loops they replaced.  Those loops are
kept here, verbatim in their arithmetic, as oracles: hypothesis generates
graphs (an ``IsA`` forest plus lateral and extra ``IsA`` edges, isolated
nodes, out-of-vocabulary concepts) and every output must equal the oracle's
byte for byte.  The tiny test workspace is checked the same way end to end:
text embeddings, world prototypes, SCADS vectors and installed images.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import (KnowledgeGraph, Relation, build_concept_graph,
                      generate_text_embeddings, retrofit)
from repro.kg.embeddings import hierarchical_gaussian
from repro.scads import Scads
from repro.scads.builder import install_imagenet21k
from repro.synth import VisualWorld, WorldSpec


# ---------------------------------------------------------------------- #
# Oracles: the per-concept loops of the previous implementation
# ---------------------------------------------------------------------- #
def oracle_hierarchy_noise(graph, dim, inheritance, rng):
    noise_scale = np.sqrt(1.0 - inheritance ** 2)
    vectors = {}
    queue = deque()
    for root in graph.roots():
        vectors[root] = rng.normal(0.0, 1.0, size=dim)
        queue.append(root)
    while queue:
        parent = queue.popleft()
        for child in graph.children(parent):
            if child in vectors:
                continue
            noise = rng.normal(0.0, 1.0, size=dim)
            vectors[child] = inheritance * vectors[parent] + noise_scale * noise
            queue.append(child)
    for concept in graph.concepts:
        if concept not in vectors:
            vectors[concept] = rng.normal(0.0, 1.0, size=dim)
    return vectors


def oracle_text_embeddings(graph, dim=64, inheritance=0.8, seed=0):
    return oracle_hierarchy_noise(graph, dim, inheritance,
                                  np.random.default_rng(seed))


def oracle_prototypes(graph, spec, semantic):
    rng = np.random.default_rng(spec.seed)
    dim = spec.image_dim
    hierarchical = oracle_hierarchy_noise(graph, dim, spec.inheritance, rng)
    semantic_dims = {len(v) for v in semantic.values()}
    semantic_dim = semantic_dims.pop() if semantic_dims else spec.semantic_dim
    projection = rng.normal(0.0, 1.0 / np.sqrt(semantic_dim),
                            size=(dim, semantic_dim))
    weight = np.clip(spec.semantic_weight, 0.0, 1.0)
    prototypes = {}
    for concept in graph.concepts:
        idiosyncratic = hierarchical[concept]
        if concept in semantic and weight > 0:
            projected = projection @ semantic[concept]
            prototypes[concept] = (np.sqrt(weight) * projected
                                   + np.sqrt(1.0 - weight) * idiosyncratic)
        else:
            prototypes[concept] = idiosyncratic
    if spec.lateral_smoothing > 0:
        smoothed = dict(prototypes)
        for concept in graph.concepts:
            lateral = [prototypes[n] for n, rel, _ in graph.neighbors(concept)
                       if rel in Relation.LATERAL]
            if lateral:
                neighbourhood = np.mean(lateral, axis=0)
                smoothed[concept] = ((1.0 - spec.lateral_smoothing) * prototypes[concept]
                                     + spec.lateral_smoothing * neighbourhood)
        prototypes = smoothed
    return prototypes, projection


def oracle_retrofit(graph, text_embeddings, iterations=10, alpha=1.0, beta=1.0,
                    normalize_by_degree=True, relations=None):
    concepts = graph.concepts
    if not concepts:
        return {}
    dims = {len(v) for v in text_embeddings.values()}
    dim = dims.pop() if dims else 64
    relations = tuple(relations) if relations is not None else None
    index = {c: i for i, c in enumerate(concepts)}
    original = np.zeros((len(concepts), dim))
    alphas = np.zeros(len(concepts))
    for concept, i in index.items():
        if concept in text_embeddings:
            original[i] = np.asarray(text_embeddings[concept], dtype=np.float64)
            alphas[i] = alpha
    retrofitted = original.copy()
    for concept, i in index.items():
        if alphas[i] == 0:
            neighbor_vecs = [original[index[n]] for n, _, _ in graph.neighbors(concept)
                             if alphas[index[n]] > 0]
            if neighbor_vecs:
                retrofitted[i] = np.mean(neighbor_vecs, axis=0)
    neighbor_lists = []
    for concept in concepts:
        raw = [(index[n], w) for n, rel, w in graph.neighbors(concept)
               if relations is None or rel in relations]
        if normalize_by_degree and raw:
            total = sum(w for _, w in raw)
            pairs = [(j, beta * w / total) for j, w in raw]
        else:
            pairs = [(j, beta * w) for j, w in raw]
        neighbor_lists.append(pairs)
    for _ in range(iterations):
        updated = retrofitted.copy()
        for i, pairs in enumerate(neighbor_lists):
            if not pairs:
                continue
            total_weight = alphas[i]
            accumulator = alphas[i] * original[i]
            for j, w in pairs:
                accumulator = accumulator + w * retrofitted[j]
                total_weight += w
            if total_weight > 0:
                updated[i] = accumulator / total_weight
        retrofitted = updated
    return {concept: retrofitted[i] for concept, i in index.items()}


def assert_same_bytes(actual, expected):
    """Same keys in the same order, and every vector equal byte for byte."""
    assert list(actual) == list(expected)
    for key, vector in expected.items():
        got = actual[key]
        assert got.dtype == vector.dtype and got.shape == vector.shape, key
        assert got.tobytes() == vector.tobytes(), key


# ---------------------------------------------------------------------- #
# Generated graphs
# ---------------------------------------------------------------------- #
WEIGHTS = st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw):
    """An ``IsA`` forest plus random extra edges over shuffled concepts.

    Extra edges may use any relation, so a concept can get a second ``IsA``
    parent (or a cycle) and an existing edge can be re-typed; concepts that
    draw no edge stay isolated.
    """
    n = draw(st.integers(1, 14))
    names = [f"c{i}" for i in range(n)]
    graph = KnowledgeGraph()
    for name in draw(st.permutations(names)):
        graph.add_concept(name)
    for i in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if parent is not None:
            graph.add_edge(names[i], names[parent], relation=Relation.IS_A,
                           weight=draw(WEIGHTS))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from(Relation.ALL), WEIGHTS),
                          max_size=3 * n))
    for a, b, relation, weight in extra:
        if a != b:
            graph.add_edge(names[a], names[b], relation=relation, weight=weight)
    return graph


@st.composite
def text_vectors(draw, graph):
    """Vectors for a random subset of the concepts (the rest are OOV)."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    known = [c for c in graph.concepts if draw(st.booleans())]
    return {concept: rng.normal(size=dim) for concept in known}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retrofit_matches_the_loop_byte_for_byte(data):
    graph = data.draw(graphs())
    text = data.draw(text_vectors(graph))
    kwargs = dict(
        iterations=data.draw(st.integers(0, 3)),
        alpha=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        beta=data.draw(st.sampled_from([0.0, 1.0, 2.5])),
        normalize_by_degree=data.draw(st.booleans()),
        relations=data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(Relation.ALL), unique=True))),
    )
    assert_same_bytes(retrofit(graph, text, **kwargs),
                      oracle_retrofit(graph, text, **kwargs))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(1, 6), st.sampled_from([0.0, 0.3, 0.8]),
       st.integers(0, 2 ** 16))
def test_hierarchy_noise_matches_sequential_draws(graph, dim, inheritance, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_bytes(hierarchical_gaussian(graph, dim, inheritance, rng),
                      oracle_hierarchy_noise(graph, dim, inheritance, oracle_rng))
    # The bulk draw leaves the generator where the per-concept draws did.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert_same_bytes(generate_text_embeddings(graph, dim, inheritance, seed),
                      oracle_text_embeddings(graph, dim, inheritance, seed))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_world_prototypes_match_the_loop(data):
    graph = data.draw(graphs())
    semantic = data.draw(text_vectors(graph))
    spec = WorldSpec(image_dim=data.draw(st.integers(1, 6)),
                     inheritance=data.draw(st.sampled_from([0.0, 0.75])),
                     semantic_weight=data.draw(st.sampled_from([0.0, 0.85])),
                     lateral_smoothing=data.draw(st.sampled_from([0.0, 0.15])),
                     seed=data.draw(st.integers(0, 2 ** 16)))
    world = VisualWorld(graph, spec, semantic_embeddings=semantic)
    prototypes, projection = oracle_prototypes(graph, spec, semantic)
    assert_same_bytes({c: world.prototype(c) for c in world.concepts}, prototypes)
    assert world._projection.tobytes() == projection.tobytes()


def test_tiny_workspace_matches_the_oracles(tiny_workspace):
    """Rebuild the tiny workspace's graph and run every oracle on it."""
    spec = tiny_workspace.spec
    graph = build_concept_graph(spec.graph)
    text = oracle_text_embeddings(graph, dim=spec.world.semantic_dim, seed=spec.seed)
    assert_same_bytes(tiny_workspace.text_embeddings, text)

    prototypes, _ = oracle_prototypes(graph, spec.world, text)
    world = tiny_workspace.world
    assert_same_bytes({c: world.prototype(c) for c in prototypes}, prototypes)

    # SCADS vectors were retrofitted before the out-of-vocabulary target
    # classes were aligned, so compare the graph's own concepts.
    vectors = oracle_retrofit(graph, text, iterations=8)
    embedding = tiny_workspace.scads.embedding
    assert_same_bytes({c: embedding.get_vector(c, allow_approximation=False)
                       for c in vectors}, vectors)

    oracle_world = VisualWorld(graph, spec.world, semantic_embeddings=text)
    oracle_world._prototypes = prototypes
    oracle_scads = Scads(graph)
    install_imagenet21k(oracle_scads, oracle_world,
                        images_per_concept=spec.scads_images_per_concept,
                        seed=spec.seed)
    installed = tiny_workspace.scads.scads
    concepts = oracle_scads.concepts_with_images()
    assert concepts == installed.concepts_with_images()[:len(concepts)]
    assert_same_bytes({c: installed.get_images(c) for c in concepts},
                      {c: oracle_scads.get_images(c) for c in concepts})
