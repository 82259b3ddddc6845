"""Simplicial maps and self-map specifications.

A simplicial self-map that genuinely moves points often cannot be written
on the original vertices, so a self-map is specified on the n-fold
barycentric subdivision: a vertex map sd^n(K) -> K whose induced affine map
realizes the intended geometric map.  All traces downstream are taken of
the chain endomorphism (map_* o sd^n_*), which a spec builds once and keeps.
"""

from __future__ import annotations

from functools import cached_property

from .complexes import (
    CellularSubset,
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    read_table,
    subdivided_complex,
    vertex_key,
)
from .errors import DegenerateInputError, NonSimplicialMapError
from .exact import parse_integer
from .records import Value, set_field


class SimplicialMap(Value):
    __slots__ = _fields = ("source", "target", "vertex_map")

    @staticmethod
    def build(source, target, vertex_map) -> "SimplicialMap":
        """A checked map, keyed by the source's own vertex objects."""
        given = read_table(vertex_map, "images for vertex")
        missing = [v for v in source.vertices if v not in given]
        if missing:
            raise NonSimplicialMapError(f"vertices without images: {missing[:4]}")
        if len(given) != len(source.vertices):
            extra = sorted(set(given).difference(source.vertices), key=repr)
            raise NonSimplicialMapError(f"keys outside source: {extra[:4]}")
        vm = {v: given[v] for v in source.vertices}
        targets = set(target.vertices)
        try:
            stray = sorted((v for v in vm.values() if v not in targets), key=repr)
        except TypeError as exc:  # an unhashable image
            raise NonSimplicialMapError(f"images outside target: {exc}") from None
        if stray:
            raise NonSimplicialMapError(f"images outside target: {stray[:4]}")
        for image in vm.values():
            vertex_key(image)  # True equals the vertex 1 but is no vertex
        m = SimplicialMap(source, target, vm)
        bad = [s for s in source.simplices if m.image_simplex(s) not in target.simplices]
        if bad:
            s = min(bad, key=cell_sort_key)  # named in cell order
            raise NonSimplicialMapError(
                f"simplex {canonical_tuple(s)} maps onto "
                f"{canonical_tuple(m.image_simplex(s))}, not a simplex of the target"
            )
        return m

    def image_simplex(self, s) -> frozenset:
        return frozenset(map(self.vertex_map.__getitem__, s))


def compose(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    if outer.source is not inner.target and outer.source != inner.target:
        raise DegenerateInputError("maps are not composable")
    return SimplicialMap.build(
        inner.source,
        outer.target,
        {v: outer.vertex_map[inner.vertex_map[v]] for v in inner.source.vertices},
    )


class SelfMapSpec(Value):
    """A self-map of |base| written as a vertex map sd^level(base) -> base."""

    _fields = ("base", "level", "vertex_map")

    @staticmethod
    def build(base, level, vertex_map) -> "SelfMapSpec":
        """A spec whose map is checked once, here, and keyed by the vertex
        objects of sd^level(base)."""
        level = parse_integer(level, "subdivision level", least=0)
        m = SimplicialMap.build(subdivided_complex(base, level)[0], base, vertex_map)
        spec = SelfMapSpec(base, level, m.vertex_map)
        set_field(spec, "_map", m)  # fills the cached property
        return spec

    @staticmethod
    def identity(base) -> "SelfMapSpec":
        return SelfMapSpec.build(base, 0, {v: v for v in base.vertices})

    def source_complex(self) -> SimplicialComplex:
        return subdivided_complex(self.base, self.level)[0]

    def carrier(self) -> dict:
        return subdivided_complex(self.base, self.level)[1]

    @cached_property
    def _map(self) -> SimplicialMap:
        return SimplicialMap.build(
            self.source_complex(), self.base, self.vertex_map
        )

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
        invariance g(|L|) <= |L|."""
        cells = CellularSubset.of(self.base, cells).members
        m = self.as_map()
        carrier = self.carrier()
        for tau, sigma in carrier.items():
            if sigma in cells and m.image_simplex(tau) not in cells:
                return False
        return True


def refine(spec: SelfMapSpec) -> SelfMapSpec:
    """Re-express the same geometric map with sd(base) as the base complex.

    Exists exactly when the vertex map is injective on every subdivision
    simplex (then barycenters map to barycenters); otherwise the refined
    vertex map would need images that are not vertices.  Keys and images
    are the vertex objects of the refined source and base.
    """
    source = spec.source_complex()
    refined_base = subdivided_complex(spec.base, 1)[0]
    refined = subdivided_complex(refined_base, spec.level)[0]
    sources = {v: v for v in refined.vertices}
    targets = {v: v for v in refined_base.vertices}
    new_map = {}
    for tau in source.simplices:
        images = {spec.vertex_map[v] for v in tau}
        if len(images) != len(tau):
            raise DegenerateInputError(
                "refinement needs a map that is injective on every "
                "subdivision simplex"
            )
        new_map[sources[canonical_tuple(tau)]] = targets[canonical_tuple(images)]
    return SelfMapSpec.build(refined_base, spec.level, new_map)
