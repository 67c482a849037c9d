"""Wireframe edges read from integer facet incidence, slices that keep
their facets, and plot labels."""
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from gptgeom import svg as svg_module
from gptgeom.cli import main
from gptgeom.gallery import load
from gptgeom.geometry import EmptyIntersectionError, Halfspace, Polytope, hrep_to_vrep
from gptgeom.linalg import QVec, qvec, rank
from gptgeom.svg import polytope_edges, render_system, slice_polytope

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


def test_spekkens_octahedron_and_cube():
    spek = load("spekkens").gpt_system()
    octahedron = Polytope([QVec(v[:-1]) for v in spek.states.polytope.vertices])
    assert len(octahedron.vertices) == 6
    assert len(polytope_edges(octahedron)) == 12
    cube = Polytope([qvec(*c) for c in product((-1, 1), repeat=3)])
    edges = polytope_edges(cube)
    assert len(edges) == 12
    # each cube edge joins vertices that differ in exactly one coordinate
    for i, j in edges:
        u, v = cube.vertices[i], cube.vertices[j]
        assert sum(a != b for a, b in zip(u, v)) == 1


def test_lower_dimensional_bodies():
    square = Polytope([qvec(0, 0, 1), qvec(1, 0, 1), qvec(0, 1, 1), qvec(1, 1, 1)])
    assert len(polytope_edges(square)) == 4
    segment = Polytope([qvec(0, 0, 0), qvec(1, 2, 3)])
    assert polytope_edges(segment) == [(0, 1)]


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
        assert polytope_edges(p) == rank_edges(vertices, facets)


_LABEL = re.compile(r'<text x="([-\d.]+)" y="([-\d.]+)" font-size="8" fill="#666">\(([^)]*)\)</text>')
_EFFECTS = re.compile(r'<polygon points="([^"]*)" fill="#cdd6f4"')


@pytest.mark.parametrize("name", ["bit", "bit-transformed", "noisy-bit", "notch-bit", "squit"])
def test_float_view_labels_each_vertex_at_its_own_pixel(name):
    svg = render_system(load(name).gpt_system(), float_view=True)
    # each label is written 3 px right of and 3 px above the point it names
    labels = [((float(x) - 3, float(y) + 3), tuple(map(float, text.split(", "))))
              for x, y, text in _LABEL.findall(svg)]
    corners = {tuple(map(float, p.split(","))) for p in _EFFECTS.search(svg)[1].split()}
    assert len(labels) == len(corners) >= 3
    assert {(round(x, 2), round(y, 2)) for (x, y), _ in labels} == corners
    # the plot maps (u, v) to (a + s u, b - s v): solve s from the widest pair
    (p0, v0), (p1, v1) = labels[0], max(labels, key=lambda lab: abs(lab[1][0] - labels[0][1][0]))
    s = (p1[0] - p0[0]) / (v1[0] - v0[0])
    assert s > 0
    for (x, y), (u, v) in labels:
        assert x == pytest.approx(p0[0] + s * (u - v0[0]), abs=0.5)
        assert y == pytest.approx(p0[1] - s * (v - v0[1]), abs=0.5)


def _slice_by_hull(p, value):
    """The oracle cut: the body's facets with x_last = value as two
    halfspaces in the full dimension, then the hull of the cut's vertices
    with the fixed coordinate dropped (a second pass for the facets)."""
    axis = Halfspace(QVec([0] * (p.dim - 1) + [1]), value)
    try:
        cut = hrep_to_vrep([*p.facets, axis, Halfspace(-axis.normal, -axis.offset)])
    except EmptyIntersectionError:
        return None
    return Polytope([QVec(v[:-1]) for v in cut.vertices])


@pytest.mark.parametrize("name", ["squit", "spekkens"])
def test_slice_keeps_the_cut_facets(name):
    body = load(name).gpt_system().effects.polytope
    for value in (F(-1), F(0), F(1, 4), F(1, 2), F(1), F(5)):
        cut, oracle = slice_polytope(body, value), _slice_by_hull(body, value)
        assert (cut is None) == (oracle is None)
        if cut is not None:
            assert cut.vertices == oracle.vertices
            assert set(cut.facets) == set(oracle.facets)


def test_4d_plot_reads_the_cut_facets_it_has(dd_calls, monkeypatch):
    spekkens = load("spekkens").gpt_system()
    spekkens.effects.polytope.facets
    del dd_calls[:]
    svg = render_system(spekkens)
    assert len(dd_calls) == 2  # the state body's hull, then the cut
    monkeypatch.setattr(svg_module, "slice_polytope", _slice_by_hull)
    assert render_system(spekkens) == svg


def test_empty_4d_effect_slice_is_labelled(tmp_path):
    out = tmp_path / "spek.svg"
    assert main(["plot", "--family", "spekkens", "--slice", "5", "--output", str(out)]) == 0
    svg = out.read_text()
    assert "effects @ last=5 (empty)</text>" in svg and "states (unit slice)" in svg
