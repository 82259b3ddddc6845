"""Simplicial maps and self-map specifications.

A simplicial self-map that genuinely moves points often cannot be written
on the original vertices, so a self-map is specified on the n-fold
barycentric subdivision: a vertex map sd^n(K) -> K whose induced affine map
realizes the intended geometric map.  All traces downstream are taken of
the chain endomorphism (map_* o sd^n_*), which a spec builds once and keeps.

A spec reads sd^n from the flag generator, complexes.flag_subdivision:
the vertex set, each vertex's carrier, and the top cells, on which the
map is checked.  The endomorphism, the fixed locus and
preserves_subcomplex read the same.  The tower, subdivided_complex, is
built only on demand, by source_complex, carrier, as_map and refine, and
so by euler.pushforward_spec.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .complexes import (
    CellularSubset,
    FlagSubdivision,
    SimplicialComplex,
    _unclosed_at,
    canonical_tuple,
    cell_sort_key,
    flag_subdivision,
    read_table,
    require_simplicial,
    subdivided_complex,
    vertex_key,
)
from .errors import DegenerateInputError, NonSimplicialMapError
from .records import Value, require, set_field


class SimplicialMap(Value):
    __slots__ = _fields = ("source", "target", "vertex_map")
    noun = "a simplicial map"

    @staticmethod
    def build(source, target, vertex_map) -> "SimplicialMap":
        """A checked map, keyed by the source's own vertex objects."""
        source = require_simplicial(source, "SimplicialMap.build")
        target = require_simplicial(target, "SimplicialMap.build")
        images = _read_images(source.vertices, target, vertex_map)
        m = SimplicialMap(source, target, dict(zip(source.vertices, images)))
        bad = [s for s in source.simplices if m.image_simplex(s) not in target.simplices]
        if bad:
            s = min(bad, key=cell_sort_key)  # named in cell order
            raise _not_simplicial(s, m.image_simplex(s))
        return m

    def image_simplex(self, s) -> frozenset:
        return frozenset(map(self.vertex_map.__getitem__, s))


_MISSING = object()  # no image given


def _read_images(vertices, target, vertex_map) -> list:
    """The image of each of `vertices`, a source's vertices in vertex_key
    order, under the table `vertex_map`: a table that misses one of them or
    names another vertex is refused, and so is an image that is no vertex of
    `target`."""
    given = read_table(vertex_map, "images for vertex")
    images = [given.get(v, _MISSING) for v in vertices]
    missing = [v for v, image in zip(vertices, images) if image is _MISSING]
    if missing:
        raise NonSimplicialMapError(f"vertices without images: {missing[:4]}")
    if len(given) != len(vertices):
        extra = sorted(set(given).difference(vertices), key=repr)
        raise NonSimplicialMapError(f"keys outside source: {extra[:4]}")
    targets = set(target.vertices)
    try:
        stray = sorted((v for v in images if v not in targets), key=repr)
    except TypeError as exc:  # an unhashable image
        raise NonSimplicialMapError(f"images outside target: {exc}") from None
    if stray:
        raise NonSimplicialMapError(f"images outside target: {stray[:4]}")
    for image in images:
        vertex_key(image)  # True equals the vertex 1 but is no vertex
    return images


def _not_simplicial(s, image) -> NonSimplicialMapError:
    return NonSimplicialMapError(
        f"simplex {canonical_tuple(s)} maps onto {canonical_tuple(image)}, "
        "not a simplex of the target"
    )


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    outer = require(outer, SimplicialMap, "compose")
    inner = require(inner, SimplicialMap, "compose")
    if outer.source is not inner.target and outer.source != inner.target:
        raise DegenerateInputError("maps are not composable")
    return SimplicialMap.build(
        inner.source,
        outer.target,
        {v: outer.vertex_map[inner.vertex_map[v]] for v in inner.source.vertices},
    )


def _check_top_cells(sub: FlagSubdivision, images: list) -> None:
    """Refuse a vertex map of sd^level (`images`, by vertex number) that is
    not simplicial into the base.  Every simplex of sd^level is a face of a
    top cell over a maximal base simplex, and a face maps onto a face of
    its cell's image, so the map is simplicial when each top cell maps
    onto a simplex of the (face-closed) base.  A refusal names the first
    bad simplex in cell order, as SimplicialMap.build's scan of all of
    sd^level would; every bad simplex is a face of a bad top cell."""
    simplices, image = sub.base.simplices, images.__getitem__
    bad = [
        cell for rho in sub.base.maximal for cell in sub.chains[rho][0]
        if frozenset(map(image, cell)) not in simplices
    ]
    if bad:
        faces = {
            face for cell in bad for k in range(1, len(cell) + 1)
            for face in combinations(cell, k)
            if frozenset(map(image, face)) not in simplices
        }
        face = min(faces, key=lambda face: cell_sort_key(sub.simplex(face)))
        raise _not_simplicial(sub.simplex(face), frozenset(map(image, face)))


class SelfMapSpec(Value):
    """A self-map of |base| written as a vertex map sd^level(base) -> base,
    keyed by the vertex objects of flag_subdivision(base, level) and
    checked once, when it is built.  It keeps that sd^level as
    `subdivision`, and the image of each of its vertices by number as
    `images`."""

    _fields = ("base", "level", "vertex_map")
    noun = "a self-map spec"

    def __init__(self, base, level, vertex_map):
        sub = flag_subdivision(base, level)
        ordered = list(map(sub.vertices.__getitem__, sub.order))
        images = _read_images(ordered, base, vertex_map)
        by_number = [None] * len(ordered)
        for n, image in zip(sub.order, images):
            by_number[n] = image
        _check_top_cells(sub, by_number)
        set_field(self, "base", base)
        set_field(self, "level", sub.level)
        set_field(self, "vertex_map", dict(zip(ordered, images)))
        set_field(self, "subdivision", sub)
        set_field(self, "images", by_number)

    @staticmethod
    def build(base, level, vertex_map) -> "SelfMapSpec":
        return SelfMapSpec(base, level, vertex_map)

    @staticmethod
    def identity(base) -> "SelfMapSpec":
        base = require_simplicial(base, "SelfMapSpec.identity")
        return SelfMapSpec(base, 0, {v: v for v in base.vertices})

    def source_complex(self) -> SimplicialComplex:
        return subdivided_complex(self.base, self.level)[0]

    def carrier(self) -> dict:
        return subdivided_complex(self.base, self.level)[1]

    @cached_property
    def _map(self) -> SimplicialMap:
        """The map on the tower, keyed by the tower's own vertex objects,
        which are the generated ones in the same vertex_key order.  The
        spec checked the map when it was built, so it is not checked
        again."""
        source = self.source_complex()
        images = map(self.images.__getitem__, self.subdivision.order)
        return SimplicialMap(source, self.base, dict(zip(source.vertices, images)))

    def as_map(self) -> SimplicialMap:
        return self._map

    @property
    def endomorphism(self):
        """The chain endomorphism (map_* o sd^level_*) on C_*(base).  The
        spec builds it once, by homology.self_map_endomorphism, and keeps
        it while it is an endomorphism of the chain complex that homology
        holds for the base; one that homology has let go of and built
        again is not kept alive by the spec."""
        from . import homology

        cc = homology.chain_complex(self.base)
        endo = self.__dict__.get("_endomorphism")
        if endo is None or endo.source is not cc:
            endo = homology.self_map_endomorphism(self)
            set_field(self, "_endomorphism", endo)
        return endo

    def preserves_subcomplex(self, cells) -> bool:
        """True when every subdivision simplex carried by `cells`, a family
        of the base's cells, maps into `cells`; this is the geometric
        invariance g(|L|) <= |L|.

        The simplices carried by a base cell rho are the faces of the cells
        of its fundamental chain that no proper face of rho holds.  When
        `cells` is face-closed, the chain's cells alone decide: each face of
        one maps into its image, and `cells` holds the faces of that."""
        cells = CellularSubset.of(self.base, cells).members
        sub, image = self.subdivision, self.images.__getitem__
        closed = _unclosed_at(cells) is None
        for rho in cells:
            for cell in sub.chains[rho][0]:
                carried = [cell] if closed else [
                    face for k in range(1, len(cell) + 1)
                    for face in combinations(cell, k) if sub.carrier(face) == rho
                ]
                if any(frozenset(map(image, face)) not in cells for face in carried):
                    return False
        return True


def refine(spec: SelfMapSpec) -> SelfMapSpec:
    """Re-express the same geometric map with sd(base) as the base complex.

    Exists exactly when the vertex map is injective on every subdivision
    simplex (then barycenters map to barycenters); otherwise the refined
    vertex map would need images that are not vertices.  Keys and images
    are the vertex objects of the refined source and base.
    """
    m = require(spec, SelfMapSpec, "refine").as_map()
    refined_base = subdivided_complex(spec.base, 1)[0]
    refined = subdivided_complex(refined_base, spec.level)[0]
    sources = {v: v for v in refined.vertices}
    targets = {v: v for v in refined_base.vertices}
    new_map = {}
    for tau in m.source.simplices:
        images = m.image_simplex(tau)
        if len(images) != len(tau):
            raise DegenerateInputError(
                "refinement needs a map that is injective on every "
                "subdivision simplex"
            )
        new_map[sources[canonical_tuple(tau)]] = targets[canonical_tuple(images)]
    return SelfMapSpec.build(refined_base, spec.level, new_map)
