"""Wireframe edges read from integer facet incidence."""
import random
from fractions import Fraction
from itertools import product

from gptgeom.gallery import load
from gptgeom.geometry import Polytope
from gptgeom.linalg import QVec, qvec, rank
from gptgeom.svg import polytope_edges

F = Fraction


def rank_edges(vertices, facets):
    """Edges by tight-facet rank: the oracle for ``polytope_edges``."""
    dim = len(vertices[0])
    tight = [{k for k, h in enumerate(facets) if h.evaluate(v) == 0} for v in vertices]
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            common = [facets[k].normal for k in sorted(tight[i] & tight[j])]
            if common and rank(common) >= dim - 1:
                edges.append((i, j))
    return edges


def edges_of(p):
    return polytope_edges(list(p.vertices), list(p.facets))


def test_spekkens_octahedron_and_cube():
    spek = load("spekkens").gpt_system()
    octahedron = Polytope([QVec(v[:-1]) for v in spek.states.polytope.vertices])
    assert len(octahedron.vertices) == 6
    assert len(edges_of(octahedron)) == 12
    cube = Polytope([qvec(*c) for c in product((-1, 1), repeat=3)])
    edges = edges_of(cube)
    assert len(edges) == 12
    # each cube edge joins vertices that differ in exactly one coordinate
    for i, j in edges:
        u, v = cube.vertices[i], cube.vertices[j]
        assert sum(a != b for a, b in zip(u, v)) == 1


def test_lower_dimensional_bodies():
    square = Polytope([qvec(0, 0, 1), qvec(1, 0, 1), qvec(0, 1, 1), qvec(1, 1, 1)])
    assert len(edges_of(square)) == 4
    segment = Polytope([qvec(0, 0, 0), qvec(1, 2, 3)])
    assert edges_of(segment) == [(0, 1)]


def _random_points(gen, dim):
    pts = [[F(gen.randint(-4, 4), gen.randint(1, 3)) for _ in range(dim)]
           for _ in range(gen.randint(2, dim + 6))]
    if dim == 3 and gen.random() < 0.3:  # flat: every point on one plane
        for p in pts:
            p[2] = p[0] + 2 * p[1]
    return [QVec(p) for p in pts]


def test_random_polytopes_match_rank_oracle():
    gen = random.Random(808)
    for _ in range(150):
        p = Polytope(_random_points(gen, gen.choice([2, 3])))
        vertices, facets = list(p.vertices), list(p.facets)
        assert polytope_edges(vertices, facets) == rank_edges(vertices, facets)
