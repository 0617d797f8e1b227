"""Tests for the textual HLO printer (``repro dump --format hlo``)."""

from repro.graph import GraphBuilder, Shape, module_to_text


class TestPrint:
    def test_every_instruction_in_uid_order(self, tiny_mlp):
        lines = module_to_text(tiny_mlp).splitlines()
        assert lines[0] == f"hlo_module {tiny_mlp.name} {{"
        body = lines[1:-2]
        assert [line.split(" = ")[0] for line in body] == [
            f"  %{inst.uid}" for inst in tiny_mlp.instructions]
        assert lines[-2:] == [f"  root %{tiny_mlp.root.uid}", "}"]

    def test_attrs_and_names(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((2, 8, 8, 4)), "img")
        f = b.constant(Shape((3, 3, 4, 8)), "filt")
        b.conv2d(x, f, stride=2, padding="valid")
        assert module_to_text(b.build()) == (
            "hlo_module m {\n"
            '  %0 = parameter() : bf16[2,8,8,4] "img"\n'
            '  %1 = constant() : bf16[3,3,4,8] "filt"\n'
            '  %2 = conv2d(%0, %1) {padding="valid", stride=2} '
            ": bf16[2,3,3,8]\n"
            "  root %2\n"
            "}\n")

    def test_tuple_attrs(self):
        b = GraphBuilder("m")
        x = b.parameter(Shape((2, 3, 4)))
        b.transpose(x, (2, 0, 1))
        assert "  %1 = transpose(%0) {perm=(2,0,1)} : bf16[4,2,3]\n" in \
            module_to_text(b.build())
