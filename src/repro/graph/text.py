"""Textual HLO: print modules as reviewable text (``repro dump``).

The graph IR is the durable interface between frameworks and chips
(Lesson 2), so it deserves a reviewable text form. The syntax mirrors
XLA's HLO dumps:

    hlo_module tiny {
      %0 = parameter() : bf16[4,256] "x"
      %1 = constant() : bf16[256,128] "w0"
      %2 = dot(%0, %1) : bf16[4,128] "h"
      %3 = conv2d(%2, %1) {padding="same", stride=2} : ...
      %4 = relu(%2) : bf16[4,128] "act"
      root %4
    }

``module_to_text`` prints every instruction in uid order with its
shape, attrs and name, then the root.
"""

from __future__ import annotations

from repro.graph.hlo import HloInstruction, HloModule


def _format_attr_value(value: object) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _format_instruction(inst: HloInstruction) -> str:
    operands = ", ".join(f"%{o.uid}" for o in inst.operands)
    attrs = ""
    if inst.attrs:
        pairs = ", ".join(f"{k}={_format_attr_value(v)}"
                          for k, v in inst.attrs)
        attrs = f" {{{pairs}}}"
    name = f' "{inst.name}"' if inst.name else ""
    return (f"  %{inst.uid} = {inst.opcode}({operands}){attrs} "
            f": {inst.shape}{name}")


def module_to_text(module: HloModule) -> str:
    """Render a module in the textual HLO format."""
    module.validate()
    lines = [f"hlo_module {module.name} {{"]
    lines.extend(_format_instruction(inst) for inst in module.instructions)
    lines.append(f"  root %{module.root.uid}")
    lines.append("}")
    return "\n".join(lines) + "\n"
