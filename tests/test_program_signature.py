"""The program signature contract: equal content, equal structure.

``Program.signature()`` keys the grid kernel's structure table
(``repro.sim.gridkernel``). It holds the bundles themselves, and each
bundle caches its hash, so the key must mean exactly what a content key
means: equal programs share a structure, a longer program gets a new
one, and a program loaded in another process (another hash seed, other
enum member ids) finds the structure an equal fresh program built. A
program caches its signature and its hash, so neither may travel with
a pickle or a copy.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.isa.instructions import Bundle, Instruction, Opcode
from repro.isa.program import Program
from repro.sim.gridkernel import _struct_for, grid_kernel_stats

ROOT = Path(__file__).resolve().parent.parent


def build(name: str = "sig") -> Program:
    """A small program with repeated bundle objects, as the scheduler
    emits them; every call builds new bundle and instruction objects."""
    dma = Bundle((Instruction(Opcode.DMA_IN, (0, 4096, 1)),))
    wait = Bundle((Instruction(Opcode.SYNC_WAIT, (1,)),))
    work = Bundle((Instruction(Opcode.MXM, (128, 128, 128)),
                   Instruction(Opcode.VADD, (1024,))))
    return Program(name, 4, [dma, wait, work, work, work,
                             Bundle((Instruction(Opcode.HALT),))])


class TestSignature:
    def test_equal_content_shares_one_structure(self):
        first, second = build(), build()
        assert first.run_bundles[0] is not second.run_bundles[0]
        assert first.signature() == second.signature()
        assert hash(first.signature()) == hash(second.signature())
        before = grid_kernel_stats().structs
        assert _struct_for(first) is _struct_for(second)
        assert grid_kernel_stats().structs == before + 1

    def test_name_and_generation_are_part_of_the_key(self):
        program = build()
        assert build("other").signature() != program.signature()
        other = Program(program.name, generation=3, bundles=program.bundles)
        assert other.signature() != program.signature()

    def test_a_longer_program_gets_a_new_structure(self):
        program = build("grown")
        first = _struct_for(program)
        before = grid_kernel_stats().structs
        longer = Program(program.name, 4, list(program.bundles) + [
            Bundle((Instruction(Opcode.MXM, (64, 64, 64)),))])
        assert _struct_for(longer) is not first
        assert grid_kernel_stats().structs == before + 1

    def test_a_hash_collision_is_not_a_hit(self, monkeypatch):
        # The structure tables are keyed on the signature's hash; a hit
        # must still be the same signature.
        monkeypatch.setattr(Program, "__hash__", lambda self: 0)
        program = build("collide")
        longer = Program(program.name, 4, [
            Bundle((Instruction(Opcode.MXM, (64, 64, 64)),))]
            + list(program.bundles))
        first = _struct_for(program)
        assert _struct_for(longer).macs == first.macs + 64 ** 3
        assert _struct_for(program).macs == first.macs

    def test_cached_hash_is_never_pickled_or_copied(self):
        program = build()
        bundle = program.run_bundles[2]
        before = pickle.dumps(bundle)
        before_program = pickle.dumps(program)
        hash(bundle)
        assert hash(program) == hash(program.signature())
        for out, want in ((bundle, before), (program, before_program)):
            assert pickle.dumps(out) == want
            assert pickle.dumps(copy.copy(out)) == want
            assert pickle.dumps(copy.deepcopy(out)) == want
        assert not {"_signature", "_hash"} & set(vars(copy.copy(program)))


_DUMP = """
import pickle, sys
from repro.sim.gridkernel import _struct_for
from tests.test_program_signature import build
program = build()
_struct_for(program)  # hash every bundle before pickling
sys.stdout.buffer.write(pickle.dumps(program))
"""

# Objects allocated before the import move the enum members to other
# ids, so a hash carried over from the dumping process cannot match.
_LOAD = """
import pickle, sys
padding = [object() for _ in range(4096)]
from repro.sim.gridkernel import _struct_for, grid_kernel_stats
from tests.test_program_signature import build
fresh = build()
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded.signature() == fresh.signature()
assert [hash(b) for b in loaded.bundles] == [hash(b) for b in fresh.bundles]
assert _struct_for(fresh) is _struct_for(loaded)
assert grid_kernel_stats().structs == 1
print("ok")
"""


def _python(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin,
                          env=env, cwd=ROOT, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


class TestAcrossProcesses:
    def test_program_pickled_under_one_seed_loads_under_another(self):
        pickled = _python(_DUMP, "0")
        assert _python(_LOAD, "1", stdin=pickled).strip() == b"ok"
