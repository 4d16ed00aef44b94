#!/usr/bin/env python3
"""Checks that AVX code in the library stays inside the GEMM variants.

    python3 tools/check_isa_isolation.py build/libtifl.a

On x86-64 builds whose baseline lacks AVX2, src/tensor/gemm_avx2.cc and
src/tensor/gemm_avx512.cc compile the GEMM leaf kernels again with
-mavx2 and -mavx512f, and gemm.cc calls each only where CPUID reports its
ISA.  That is safe only while every function holding AVX instructions is
one of those units' own, reached through its kernel table.  Two ways to
break it:

  - A variant unit calls a header-inline function (std::min, a
    std::vector member, ...).  It then emits its own AVX copy as a weak
    symbol, and the static link may keep that copy for every caller,
    baseline code included: a SIGILL on a CPU without that ISA, which a
    CPU with it never shows.
  - Some other code lands in a variant unit, or another unit is built
    with AVX flags.

So, with `nm` and `objdump -d` over the archive, this fails if a weak
symbol, or any function outside a variant namespace (VARIANT_NAMESPACES),
holds a VEX or EVEX instruction: a %ymm, %zmm or %k operand, or a
v-prefixed SSE/AVX mnemonic.  Run it on a build whose baseline has no AVX
(the default build, Debug or Release); a -march=native build is AVX
throughout.  It also fails if a variant unit is in the archive but no
AVX code is found in it, so a parser that sees nothing cannot pass.

The instruction test, checked with `python3 -m doctest
tools/check_isa_isolation.py`:

>>> is_vex("vaddps", "%ymm1,%ymm2,%ymm3")
True
>>> is_vex("vmovss", "0x4(%rax),%xmm0")
True
>>> is_vex("kmovw", "%k1,%eax")
True
>>> is_vex("addps", "%xmm1,%xmm0")
False
>>> is_vex("vmcall", "")
False
>>> is_vex("mov", "%rdi,%rax")
False
"""
import re
import subprocess
import sys

# The namespaces and units of the GEMM leaf-kernel variants
# (src/tensor/gemm_avx2.cc, src/tensor/gemm_avx512.cc).
VARIANT_NAMESPACES = ("tifl::tensor::avx2::", "tifl::tensor::avx512::")
VARIANT_MEMBERS = ("gemm_avx2.cc.o", "gemm_avx512.cc.o")

# nm types of weak definitions: weak functions and objects, GNU unique.
WEAK_TYPES = set("WwVvu")

# v-prefixed mnemonics that are not VEX-encoded: VMX, SVM, verr/verw.
NOT_VEX = {
    "verr", "verw", "vmcall", "vmclear", "vmfunc", "vmlaunch", "vmload",
    "vmmcall", "vmptrld", "vmptrst", "vmread", "vmresume", "vmrun",
    "vmsave", "vmwrite", "vmxoff", "vmxon",
}

AVX_OPERAND = re.compile(r"%(?:[yz]mm\d+|k[0-7])\b")
MEMBER = re.compile(r"^(\S+):\s+file format ")
LABEL = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\s+(\S+)\s*(.*)$")


def is_vex(mnemonic, operands):
    """True for a VEX- or EVEX-encoded instruction."""
    if mnemonic in ("{vex}", "{evex}"):
        return True
    if AVX_OPERAND.search(operands):
        return True
    return mnemonic.startswith("v") and mnemonic not in NOT_VEX


def weak_symbols(archive):
    """{(member, demangled name)} of the archive's weak definitions."""
    out = subprocess.run(["nm", "-C", "--defined-only", archive],
                         check=True, capture_output=True, text=True).stdout
    weak, member = set(), None
    for line in out.splitlines():
        if line.endswith(".o:"):
            member = line[:-1]
            continue
        fields = line.split(None, 2)
        if len(fields) == 3 and fields[1] in WEAK_TYPES:
            weak.add((member, fields[2]))
    return weak


def avx_functions(archive):
    """{(member, demangled function): first VEX/EVEX instruction}."""
    out = subprocess.run(
        ["objdump", "-d", "-C", "-w", "--no-show-raw-insn", archive],
        check=True, capture_output=True, text=True).stdout
    found, member, function = {}, None, None
    for line in out.splitlines():
        m = MEMBER.match(line)
        if m:
            member, function = m.group(1), None
            continue
        m = LABEL.match(line)
        if m:
            function = m.group(1)
            continue
        m = INSN.match(line)
        if not m or function is None or (member, function) in found:
            continue
        mnemonic, operands = m.group(1), m.group(2).split("#")[0].strip()
        if is_vex(mnemonic, operands):
            found[(member, function)] = (mnemonic + " " + operands).strip()
    return found


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_isa_isolation.py LIBRARY.a")
    archive = sys.argv[1]
    weak = weak_symbols(archive)
    found = avx_functions(archive)
    members = subprocess.run(["ar", "t", archive], check=True,
                             capture_output=True, text=True).stdout.split()

    failures = []
    for (member, function), insn in sorted(found.items()):
        if (member, function) in weak:
            why = "a weak symbol"
        elif not function.startswith(VARIANT_NAMESPACES):
            why = "outside the variant namespaces"
        else:
            continue
        failures.append("%s: %s is %s and holds `%s`" %
                        (member, function, why, insn))
    for member in VARIANT_MEMBERS:
        if member in members and not any(m == member for m, _ in found):
            failures.append("%s: no VEX instruction found in the "
                            "variant unit (is objdump's output parsed?)" %
                            member)

    variant = sum(1 for m, _ in found if m in VARIANT_MEMBERS)
    if failures:
        print("\n".join(failures))
        print("check_isa_isolation: %d failure(s) in %s" %
              (len(failures), archive))
        return 1
    print("check_isa_isolation: %s: %d function(s) hold VEX/EVEX code, all "
          "in %s and none weak" % (archive, variant,
                                   ", ".join(VARIANT_NAMESPACES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
