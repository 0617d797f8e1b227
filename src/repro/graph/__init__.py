"""HLO-like graph IR (the compiler-compatibility boundary of Lesson 2).

Models are expressed as computations over tensors in a small XLA-HLO-style
op set. This IR — not the VLIW binary — is the durable interface between
ML frameworks and TPU generations: the same :class:`HloModule` compiles to
any generation whose dtypes it uses, which is what "compiler compatibility
trumps binary compatibility" means operationally.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.graph.shapes": ("DTYPES", "DType", "Shape"),
    "repro.graph.ops": ("OpDef", "OPDEFS", "opdef"),
    "repro.graph.hlo": ("HloInstruction", "HloModule", "GraphBuilder"),
    "repro.graph.evaluator": ("Evaluator", "evaluate_module"),
    "repro.graph.text": ("module_to_text",),
})
