"""Pod topologies: wrap-around tori and an OCS-reconfigurable variant.

TPUv2/v3 pods wire chips into 2D tori over ICI; TPU v4 inserts optical
circuit switches (OCS) between blocks so the fabric can be patched
around failed links at the cost of a reconfiguration delay (the OCS
paper in PAPERS.md). This module models both as one class:

* :class:`PodTopology` — a 1/2/3-dimensional wrap torus over
  :class:`~repro.arch.ici.IciLink` links, with deterministic
  dimension-order routing, reroute-around-dead-link on the torus, and
  dead-link-transparent routing (plus a reconfiguration latency) on the
  ``"ocs"`` variant.
* Per-hop cost — :meth:`PodTopology.path_seconds` prices a route hop by
  hop from link bandwidth and latency, so per-link slowdowns and
  reroutes change the numbers deterministically.

Links are bidirectional fibers identified by ``node * ndims + axis``:
link ``L`` is the fiber between ``node`` and its ``+1`` neighbor along
``axis``, owned by the minus-side endpoint, and a hop in either
direction traverses the same fiber. Killing one link id therefore cuts
both directions between its two endpoints — matching how the fault
model indexes links.

Everything here is pure arithmetic over the arguments: no RNG, no
global state, byte-identical results run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.arch.chip import ChipConfig
from repro.arch.ici import IciLink

#: Default OCS reconfiguration latency (simulated seconds): the switch
#: needs milliseconds to retrain a patched lightpath, during which the
#: slice cannot make collective progress.
DEFAULT_OCS_RECONFIG_S = 25e-3

_KINDS = ("torus", "ocs")


@dataclass(frozen=True)
class PodTopology:
    """A wrap torus (or OCS-patched torus) of identical chips.

    ``dims`` gives the torus extents, e.g. ``(4,)`` for a 4-chip ring or
    ``(4, 4)`` for a 16-chip 2D torus. Every extent must be at least 2 —
    an extent-1 axis has no links — except the degenerate single-chip
    topology ``(1,)``, which exists so a 1-chip slice can carry the same
    metadata as a real slice (it has zero links and routes nothing).

    ``kind="torus"`` routes around dead links where the ring allows and
    reports a partition (``route`` returns ``None``) where it does not.
    ``kind="ocs"`` assumes the optical switch patches a spare lightpath
    around any dead link: routing ignores dead links entirely, but each
    failure costs :attr:`ocs_reconfig_s` of slice-wide outage (applied
    by the slice simulator, not here). Slow links degrade both kinds —
    the OCS only replaces dead fibers, it cannot speed up a slow one.
    """

    dims: tuple
    link: IciLink
    kind: str = "torus"
    ocs_reconfig_s: float = DEFAULT_OCS_RECONFIG_S

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not 1 <= len(dims) <= 3:
            raise ValueError(
                f"dims must have 1-3 axes, got {len(dims)}")
        if dims != (1,):
            for extent in dims:
                if extent < 2:
                    raise ValueError(
                        f"torus extents must be >= 2 (got {extent}); use "
                        "dims=(1,) for a single-chip slice")
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        if math.isnan(self.ocs_reconfig_s):
            raise ValueError("ocs_reconfig_s must not be NaN")
        if self.ocs_reconfig_s < 0:
            raise ValueError(
                f"ocs_reconfig_s must be non-negative, "
                f"got {self.ocs_reconfig_s}")

    # ------------------------------------------------------------- structure

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @property
    def num_chips(self) -> int:
        n = 1
        for extent in self.dims:
            n *= extent
        return n

    @property
    def num_links(self) -> int:
        """One +1 link per (node, axis); zero on the single-chip slice."""
        if self.dims == (1,):
            return 0
        return self.num_chips * self.ndims

    @property
    def ports_per_chip(self) -> int:
        """ICI ports each chip needs: one +1 and one -1 lane per axis."""
        if self.dims == (1,):
            return 0
        return 2 * self.ndims

    def validate_chip(self, chip: ChipConfig) -> None:
        """Raise unless ``chip`` has enough ICI ports for this topology."""
        if chip.ici_links < self.ports_per_chip:
            raise ValueError(
                f"{chip.name} has {chip.ici_links} ICI links; a "
                f"{'x'.join(str(d) for d in self.dims)} {self.kind} needs "
                f"{self.ports_per_chip} per chip")

    def coords(self, node: int) -> tuple:
        """Mixed-radix coordinates of ``node`` (row-major, last axis fastest)."""
        if not 0 <= node < self.num_chips:
            raise ValueError(f"node {node} outside 0..{self.num_chips - 1}")
        out = []
        rest = node
        for extent in reversed(self.dims):
            out.append(rest % extent)
            rest //= extent
        return tuple(reversed(out))

    def node_at(self, coords: Sequence[int]) -> int:
        if len(coords) != self.ndims:
            raise ValueError(f"expected {self.ndims} coordinates")
        node = 0
        for coord, extent in zip(coords, self.dims):
            if not 0 <= coord < extent:
                raise ValueError(f"coordinate {coord} outside 0..{extent - 1}")
            node = node * extent + coord
        return node

    def link_id(self, node: int, axis: int) -> int:
        """The link carrying ``node`` -> its +1 neighbor along ``axis``."""
        if not 0 <= axis < self.ndims:
            raise ValueError(f"axis {axis} outside 0..{self.ndims - 1}")
        if not 0 <= node < self.num_chips:
            raise ValueError(f"node {node} outside 0..{self.num_chips - 1}")
        return node * self.ndims + axis

    def _step(self, node: int, axis: int, direction: int) -> tuple:
        """(next node, traversed link id) one hop along ``axis``."""
        coords = list(self.coords(node))
        extent = self.dims[axis]
        if direction > 0:
            link = self.link_id(node, axis)
            coords[axis] = (coords[axis] + 1) % extent
            return self.node_at(coords), link
        coords[axis] = (coords[axis] - 1) % extent
        prev = self.node_at(coords)
        return prev, self.link_id(prev, axis)

    # --------------------------------------------------------------- routing

    def _ring_path(self, node: int, axis: int, distance: int, direction: int,
                   dead: frozenset) -> Optional[list]:
        """Link ids walking ``distance`` hops in ``direction``, or None."""
        links: list[int] = []
        current = node
        for _ in range(distance):
            current, link = self._step(current, axis, direction)
            if link in dead:
                return None
            links.append(link)
        return links

    def route(self, src: int, dst: int,
              dead: frozenset = frozenset()) -> Optional[tuple]:
        """Deterministic dimension-order route ``src`` -> ``dst``.

        Returns the traversed link ids in order, or ``None`` when the
        route is cut (torus only). Per axis the shorter ring direction
        is preferred (ties break toward +1); if a dead link blocks it,
        the other direction is tried — dimension-order routing never
        detours through another axis, so both directions blocked means
        this topology reports a partition even if a fancier router
        could still connect the pair. The OCS variant ignores ``dead``:
        the switch has already patched a spare lightpath.
        """
        if self.kind == "ocs":
            dead = frozenset()
        src_c = self.coords(src)
        dst_c = self.coords(dst)
        links: list[int] = []
        current = src
        for axis in range(self.ndims):
            extent = self.dims[axis]
            forward = (dst_c[axis] - src_c[axis]) % extent
            backward = (src_c[axis] - dst_c[axis]) % extent
            if forward == 0:
                continue
            if forward <= backward:
                tries = ((forward, 1), (backward, -1))
            else:
                tries = ((backward, -1), (forward, 1))
            segment = None
            for distance, direction in tries:
                segment = self._ring_path(current, axis, distance,
                                          direction, dead)
                if segment is not None:
                    break
            if segment is None:
                return None
            links.extend(segment)
            coords = list(self.coords(current))
            coords[axis] = dst_c[axis]
            current = self.node_at(coords)
        return tuple(links)

    # ------------------------------------------------------------ cost model

    def hop_seconds(self, link_id: int, num_bytes: float,
                    slow: Optional[Mapping[int, float]] = None) -> float:
        """One store-and-forward hop over one link, slowdown-aware."""
        factor = 1.0 if slow is None else float(slow.get(link_id, 1.0))
        if math.isnan(factor) or factor < 1.0:
            raise ValueError(
                f"link slowdown factor must be >= 1, got {factor}")
        return self.link.transfer_seconds(num_bytes * factor)

    def path_seconds(self, links: Sequence[int], num_bytes: float,
                     slow: Optional[Mapping[int, float]] = None) -> float:
        """Store-and-forward time along a route (sum of hop times)."""
        return sum(self.hop_seconds(link, num_bytes, slow) for link in links)

    def _ring_pairs(self, members: Sequence[int]) -> list:
        ordered = sorted(members)
        if len(set(ordered)) != len(ordered):
            raise ValueError("collective members must be distinct")
        for member in ordered:
            if not 0 <= member < self.num_chips:
                raise ValueError(
                    f"member {member} outside 0..{self.num_chips - 1}")
        return [(ordered[i], ordered[(i + 1) % len(ordered)])
                for i in range(len(ordered))]


def slice_topology(chip: ChipConfig, num_chips: int,
                   kind: str = "torus",
                   ocs_reconfig_s: float = DEFAULT_OCS_RECONFIG_S,
                   ) -> PodTopology:
    """The natural slice shape for a chip: 2D torus if its ICI port
    count allows (4+ links), else a 1D ring (TPUv4i's 2 links).
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    if num_chips == 1:
        dims: tuple = (1,)
    elif chip.ici_links >= 4:
        side = int(math.isqrt(num_chips))
        if side >= 2 and side * side == num_chips:
            dims = (side, side)
        else:
            dims = (num_chips,)
    else:
        dims = (num_chips,)
    topo = PodTopology(dims=dims, link=IciLink(chip.ici_link_bw),
                       kind=kind, ocs_reconfig_s=ocs_reconfig_s)
    topo.validate_chip(chip)
    return topo
