"""HLO-style module, instructions, and builder.

An :class:`HloModule` holds instructions in topological (construction)
order; :class:`GraphBuilder` is the fluent API the workload zoo uses to
define models. The module also carries the canonical cost accounting —
FLOPs, weight bytes, minimum activation traffic — that the roofline model,
the compiler, and the TCO math all consume, so there is exactly one place
where "how much work is this network" is defined.

Convention: ``constant`` instructions are model *weights*; ``parameter``
instructions are per-request *inputs*. This distinction drives CMEM
allocation (weights are pinned; inputs stream).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.graph.ops import OPDEFS, opdef
from repro.graph.shapes import (
    Shape,
    batched_matmul_result,
    conv2d_result,
    matmul_result,
    pool_result,
    reduce_result,
)


#: Each opcode's structural kind, read on every ``HloInstruction.kind``.
_KINDS: Dict[str, str] = {name: d.kind for name, d in OPDEFS.items()}

#: Builds an instruction from its field tuple without the Python-level
#: ``__new__`` a NamedTuple generates.
_new_instruction = tuple.__new__


class HloInstruction(NamedTuple):
    """One IR instruction (immutable; identity is its ``uid``).

    A tuple-backed record: a module holds thousands and a compile builds
    each graph several times, so construction and field reads run at
    tuple speed. Two instructions are equal when their fields are,
    operands compared the same way, and an instruction equals only
    another instruction. Equality walks the operand graph once, with a
    memo of the pairs already compared, and the hash reads the operands'
    uids only, so both take time linear in the graph even where
    subgraphs are shared.
    """

    uid: int
    opcode: str
    shape: Shape
    operands: Tuple["HloInstruction", ...] = ()
    attrs: Tuple[Tuple[str, object], ...] = ()
    name: str = ""

    def attr(self, key: str, default: object = None) -> object:
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    @property
    def kind(self) -> str:
        return _KINDS[self.opcode]

    def __eq__(self, other: object) -> bool:
        if type(other) is not HloInstruction:
            return False
        pending = [(self, other)]
        compared = set()
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            if type(b) is not HloInstruction:
                return False
            compared.add((id(a), id(b)))
            # Every field but the operands (index 3), then the operands.
            if a[:3] != b[:3] or a[4:] != b[4:] or len(a[3]) != len(b[3]):
                return False
            pending.extend(zip(a[3], b[3]))
        return True

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        uid, opcode, shape, operands, attrs, name = self
        return hash((uid, opcode, shape,
                     tuple([operand[0] for operand in operands]), attrs,
                     name))


class HloModule:
    """A computation: instructions in topological order plus a root."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instructions: List[HloInstruction] = []
        self._root: Optional[HloInstruction] = None
        # Identity set of members, maintained incrementally: rebuilding it
        # per add() made module construction O(n^2), which dominated cold
        # compile time for deep graphs (the unrolled LSTMs).
        self._member_ids: set = set()
        # Results that are pure functions of this module's content, keyed
        # by whoever computes them (the compiler keeps its stages here).
        # They live exactly as long as the module; add() and set_root()
        # empty the memo, so it never describes an older graph.
        self.memo: Dict[object, object] = {}

    # ----------------------------------------------------------- construction

    def add(self, opcode: str, shape: Shape,
            operands: Iterable[HloInstruction] = (),
            name: str = "", **attrs: object) -> HloInstruction:
        """Append an instruction; operands must already be in this module."""
        if not isinstance(shape, Shape):
            raise TypeError(f"shape must be a Shape, got {shape!r}")
        if opcode not in _KINDS:
            opdef(opcode)  # raises the named-opcode error
        operands = tuple(operands)
        return self._append(opcode, shape, operands,
                            tuple(sorted(attrs.items())) if attrs else (),
                            name)

    def add_copy(self, inst: HloInstruction, shape: Shape,
                 operands: Tuple[HloInstruction, ...]) -> HloInstruction:
        """Append ``inst`` with a new shape and operands (already in this
        module); its opcode, sorted attrs and name carry over as they are.

        The copy passes, composite expansion and dtype retargeting, build
        their graphs through this.
        """
        return self._append(inst.opcode, shape, operands, inst.attrs,
                            inst.name)

    def _append(self, opcode: str, shape: Shape,
                operands: Tuple[HloInstruction, ...],
                attrs: Tuple[Tuple[str, object], ...],
                name: str) -> HloInstruction:
        members = self._member_ids
        for operand in operands:
            if id(operand) not in members:
                raise ValueError(
                    f"operand %{operand.uid} is not part of module {self.name!r}")
        inst = _new_instruction(HloInstruction, (
            len(self.instructions), opcode, shape, operands, attrs, name))
        self.instructions.append(inst)
        members.add(id(inst))
        if self.memo:
            self.memo.clear()
        return inst

    def set_root(self, inst: HloInstruction) -> None:
        if id(inst) not in self._member_ids:
            raise ValueError("root must be an instruction of this module")
        self._root = inst
        self.memo.clear()

    @property
    def root(self) -> HloInstruction:
        if self._root is None:
            if not self.instructions:
                raise ValueError(f"module {self.name!r} is empty")
            return self.instructions[-1]
        return self._root

    # ------------------------------------------------------------- accounting

    @staticmethod
    def instruction_flops(inst: HloInstruction) -> float:
        """Arithmetic operations performed by one instruction."""
        definition = opdef(inst.opcode)
        if definition.kind == "matmul":
            lhs, rhs = inst.operands[0].shape, inst.operands[1].shape
            if inst.opcode == "batched_dot":
                b, m, k = lhs.dims
                return 2.0 * b * m * k * rhs.dims[2]
            m = math.prod(lhs.dims[:-1])
            k = lhs.dims[-1]
            n = rhs.dims[1]
            return 2.0 * m * k * n
        if definition.kind == "conv":
            filt = inst.operands[1].shape
            n, oh, ow, cout = inst.shape.dims
            kh, kw, cin, _ = filt.dims
            return 2.0 * n * oh * ow * cout * kh * kw * cin
        if definition.kind in ("unary", "binary"):
            return definition.flops_per_element * inst.shape.num_elements
        if definition.kind in ("reduce", "pool"):
            return float(inst.operands[0].shape.num_elements)
        if definition.kind == "composite":
            # Pre-expansion estimate; exact counts come from the expansion.
            per_elem = 8.0 if inst.opcode == "softmax" else 10.0
            return per_elem * inst.operands[0].shape.num_elements
        return 0.0  # data / shape / gather

    @staticmethod
    def instruction_weight_bytes(inst: HloInstruction) -> int:
        """Bytes of model weights this instruction *defines* (constants only)."""
        return inst.shape.byte_size if inst.opcode == "constant" else 0

    def total_flops(self) -> float:
        """FLOPs of one forward execution of the module."""
        return sum(self.instruction_flops(i) for i in self.instructions)

    def total_weight_bytes(self) -> int:
        """Total parameter footprint."""
        return sum(self.instruction_weight_bytes(i) for i in self.instructions)

    def io_bytes(self) -> int:
        """Request input + output bytes (parameters in, root out)."""
        inputs = sum(i.shape.byte_size for i in self.instructions
                     if i.opcode == "parameter")
        return inputs + self.root.shape.byte_size

    def min_hbm_traffic_bytes(self) -> float:
        """Compulsory off-chip traffic if nothing is cached on chip.

        Weights read once + request I/O. This is the numerator of the
        operational intensity the roofline experiment plots.
        """
        return float(self.total_weight_bytes() + self.io_bytes())

    def operational_intensity(self) -> float:
        """FLOPs per compulsory HBM byte — the roofline x-coordinate."""
        traffic = self.min_hbm_traffic_bytes()
        return self.total_flops() / traffic if traffic else float("inf")

    # -------------------------------------------------------------- utilities

    def validate(self) -> None:
        """Check topological order and uid density."""
        seen = set()
        for expected_uid, inst in enumerate(self.instructions):
            if inst.uid != expected_uid:
                raise ValueError(f"uid gap at %{inst.uid}")
            for operand in inst.operands:
                if operand.uid not in seen:
                    raise ValueError(
                        f"%{inst.uid} uses %{operand.uid} before definition")
            seen.add(inst.uid)
        _ = self.root


class GraphBuilder:
    """Fluent builder for :class:`HloModule` with shape inference.

    >>> b = GraphBuilder("tiny")
    >>> x = b.parameter(Shape((8, 256)), "x")
    >>> w = b.constant(Shape((256, 128)), "w")
    >>> y = b.relu(b.dot(x, w))
    >>> b.build().total_flops()
    557056.0
    """

    def __init__(self, name: str) -> None:
        self.module = HloModule(name)

    def build(self) -> HloModule:
        self.module.validate()
        return self.module

    # Data.
    def parameter(self, shape: Shape, name: str = "") -> HloInstruction:
        return self.module.add("parameter", shape, name=name)

    def constant(self, shape: Shape, name: str = "") -> HloInstruction:
        return self.module.add("constant", shape, name=name)

    # Matrix.
    def dot(self, lhs: HloInstruction, rhs: HloInstruction,
            name: str = "") -> HloInstruction:
        shape = matmul_result(lhs.shape, rhs.shape)
        return self.module.add("dot", shape, (lhs, rhs), name=name)

    def batched_dot(self, lhs: HloInstruction, rhs: HloInstruction,
                    name: str = "") -> HloInstruction:
        shape = batched_matmul_result(lhs.shape, rhs.shape)
        return self.module.add("batched_dot", shape, (lhs, rhs), name=name)

    def conv2d(self, image: HloInstruction, filt: HloInstruction,
               stride: int = 1, padding: str = "same",
               name: str = "") -> HloInstruction:
        shape = conv2d_result(image.shape, filt.shape, stride, padding)
        return self.module.add("conv2d", shape, (image, filt), name=name,
                               stride=stride, padding=padding)

    # Elementwise.
    def _unary(self, opcode: str, x: HloInstruction, name: str = "",
               **attrs: object) -> HloInstruction:
        return self.module.add(opcode, x.shape, (x,), name=name, **attrs)

    def _binary(self, opcode: str, a: HloInstruction, b: HloInstruction,
                name: str = "") -> HloInstruction:
        same = a.shape.dims == b.shape.dims
        # Bias broadcast: b is a vector matching a's last dimension.
        bias = b.shape.rank == 1 and b.shape.dims[0] == a.shape.dims[-1]
        if not (same or bias):
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        return self.module.add(opcode, a.shape, (a, b), name=name)

    def relu(self, x, name=""):
        return self._unary("relu", x, name)

    def tanh(self, x, name=""):
        return self._unary("tanh", x, name)

    def sigmoid(self, x, name=""):
        return self._unary("sigmoid", x, name)

    def gelu(self, x, name=""):
        return self._unary("gelu", x, name)

    def add(self, a, b, name=""):
        return self._binary("add", a, b, name)

    def mul(self, a, b, name=""):
        return self._binary("mul", a, b, name)

    # Reductions and composites.
    def reduce_sum(self, x, axis: int, name=""):
        shape = reduce_result(x.shape, axis)
        return self.module.add("reduce_sum", shape, (x,), name=name, axis=axis)

    def max_pool2d(self, x, window: int = 2, stride: int = 2, name=""):
        shape = pool_result(x.shape, window, stride)
        return self.module.add("max_pool2d", shape, (x,), name=name,
                               window=window, stride=stride)

    def softmax(self, x, name=""):
        return self.module.add("softmax", x.shape, (x,), name=name)

    def layernorm(self, x, name=""):
        return self.module.add("layernorm", x.shape, (x,), name=name)

    # Memory-dominated.
    def embedding_lookup(self, table: HloInstruction, ids: HloInstruction,
                         name: str = "") -> HloInstruction:
        if table.shape.rank != 2:
            raise ValueError("embedding table must be [rows, dim]")
        out = Shape(ids.shape.dims + (table.shape.dims[1],),
                    table.shape.dtype_name)
        return self.module.add("embedding_lookup", out, (table, ids), name=name)

    # Shape ops.
    def reshape(self, x, dims: Tuple[int, ...], name=""):
        if math.prod(dims) != x.shape.num_elements:
            raise ValueError(f"cannot reshape {x.shape} to {dims}")
        return self.module.add("reshape", x.shape.with_dims(dims), (x,), name=name)

    def transpose(self, x, perm: Tuple[int, ...], name=""):
        if sorted(perm) != list(range(x.shape.rank)):
            raise ValueError(f"bad permutation {perm} for {x.shape}")
        dims = tuple(x.shape.dims[p] for p in perm)
        return self.module.add("transpose", x.shape.with_dims(dims), (x,),
                               name=name, perm=perm)

    def concat(self, parts: List[HloInstruction], axis: int, name=""):
        if not parts:
            raise ValueError("concat needs at least one operand")
        base = parts[0].shape
        if not 0 <= axis < base.rank:
            raise ValueError(f"concat axis {axis} out of range for {base}")
        others = base.dims[:axis] + base.dims[axis + 1:]
        for part in parts[1:]:
            shape = part.shape
            if (shape.dtype_name != base.dtype_name
                    or shape.dims[:axis] + shape.dims[axis + 1:] != others):
                raise ValueError(
                    f"cannot concat {shape} with {base} along axis {axis}")
        total = sum(p.shape.dims[axis] for p in parts)
        dims = base.dims[:axis] + (total,) + base.dims[axis + 1:]
        return self.module.add("concat", base.with_dims(dims), tuple(parts),
                               name=name, axis=axis)
