#!/usr/bin/env python3
"""Tabulate where a run's native trace code goes, by instruction category.

Input is one or more directories of raw fragment dumps, one `.bin` file
per compiled fragment, as written by `examples/repl --dump-native DIR`:

    for p in perfbench/programs/*.js; do
      ./build/examples/repl --no-stats --dump-native /tmp/frags/$(basename $p) $p
    done
    python3 scripts/native_breakdown.py /tmp/frags/*

Each file is disassembled with `objdump -D -b binary -mi386:x86-64` and
every instruction is put in one category:

  tar-load / tar-store    memory operand based on rbx (the TAR pointer);
                          the disp8/disp32 split is reported separately
  spill-store / reload    memory operand based on rsp (the spill area)
  ctx-access              memory operand based on r15 (the VMContext)
  exit-stub / exit-tail   the per-exit stubs and the fragment's one tail
  movabs:<use>            10-byte immediates, by what consumes them
  call                    every call form (call reg, call [rip+d], rel32)
  guard-jump / jump       jcc and jmp in the body
  other                   everything else

The totals equal the sum of the fragments' sizes, so the byte column adds
up to what perfbench reports as native_code_kb (times 1024).
"""

import argparse
import collections
import os
import re
import subprocess
import sys

LINE = re.compile(r"^\s*([0-9a-f]+):\s+((?:[0-9a-f]{2} )+)\s*(.*)$")
ARG_REGS = {"rdi", "rsi", "rdx", "rcx", "r8", "r9", "edi", "esi", "edx",
            "ecx", "r8d", "r9d"}


def disassemble(path):
    """[(offset, size, text)] for the whole file, in order."""
    out = subprocess.run(
        ["objdump", "-D", "-b", "binary", "-mi386:x86-64", "-M", "intel",
         "--insn-width=16", path],
        check=True, capture_output=True, text=True).stdout
    insns = []
    for line in out.splitlines():
        m = LINE.match(line)
        if not m:
            continue
        size = len(m.group(2).split())
        text = " ".join(m.group(3).split())
        insns.append((int(m.group(1), 16), size, text))
    return insns


def mnemonic(text):
    return text.split(" ", 1)[0]


def operands(text):
    parts = text.split(" ", 1)
    return parts[1] if len(parts) > 1 else ""


def is_stub_head(text):
    # `mov al, i` / `mov eax, i`, or (older code) a stitched stub's jmp.
    return (re.match(r"^mov (al|eax),0x[0-9a-f]+$", text) is not None
            or mnemonic(text) == "jmp")


def find_stubs_and_tail(insns):
    """Index of the first stub and of the tail start (len(insns) if none)."""
    n = len(insns)
    tail = n
    for k in range(n - 1, -1, -1):
        if re.search(r"\[rcx\+rax\*8\]", insns[k][2]):
            tail = k - 1  # the table address load before it
            if tail > 0 and insns[tail - 1][2] == "movzx eax,al":
                tail -= 1
            break
    if tail == n:
        return n, n
    first = tail
    while first >= 2:
        head, jmp = insns[first - 2][2], insns[first - 1][2]
        if mnemonic(jmp) == "jmp" and is_stub_head(head):
            first -= 2
        else:
            break
    return first, tail


def movabs_use(insns, k):
    """What the movabs at insns[k] feeds."""
    text = insns[k][2]
    dst = operands(text).split(",")[0]
    nxt = insns[k + 1][2] if k + 1 < len(insns) else ""
    if re.search(r"\[" + dst + r"\]", nxt) or re.search(
            r"\[" + dst + r"[+-]", nxt):
        if nxt.startswith("mov QWORD PTR") and nxt.endswith(",rax"):
            return "nested-exit-stash"
        return "memory-base"
    if nxt == "call " + dst:
        return "call-target"
    if mnemonic(nxt) == "movq" and nxt.endswith("," + dst):
        return "double-const"
    if mnemonic(nxt) == "cmp" and dst in operands(nxt).split(","):
        return "compare-operand"
    # An argument: a call follows within the next few instructions.
    if dst in ARG_REGS:
        for j in range(k + 1, min(k + 6, len(insns))):
            if mnemonic(insns[j][2]) == "call":
                return "tree-call-entry" if dst == "rsi" else "call-arg"
    return "other"


def classify(insns):
    """Yield (category, size, detail) for each instruction."""
    first_stub, tail = find_stubs_and_tail(insns)
    for k, (_, size, text) in enumerate(insns):
        if k >= tail:
            yield "exit-tail", size, None
            continue
        if k >= first_stub:
            yield "exit-stub", size, None
            continue
        op = mnemonic(text)
        if op == "movabs":
            yield "movabs:" + movabs_use(insns, k), size, None
            continue
        if op == "call":
            yield "call", size, None
            continue
        mem = re.search(r"\[(\w+)([+-]0x[0-9a-f]+)?\]", text)
        if mem:
            base, disp = mem.group(1), mem.group(2)
            wide = disp is not None and int(disp.replace("0x", ""), 16) not in \
                range(-128, 128)
            store = operands(text).startswith(("QWORD PTR", "DWORD PTR",
                                                "BYTE PTR", "WORD PTR"))
            if op == "cmp":
                store = False
            if base == "rbx":
                yield ("tar-store" if store else "tar-load"), size, \
                    "disp32" if wide else "disp8"
                continue
            if base == "rsp":
                yield ("spill-store" if store else "spill-reload"), size, None
                continue
            if base == "r15":
                yield "ctx-access", size, None
                continue
        if op.startswith("j"):
            yield ("jump" if op == "jmp" else "guard-jump"), size, None
            continue
        yield "other", size, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dirs", nargs="+", help="directories of .bin dumps")
    args = ap.parse_args()
    files = sorted(os.path.join(d, f) for d in args.dirs
                   for f in os.listdir(d) if f.endswith(".bin"))
    if not files:
        sys.exit("no .bin files in " + " ".join(args.dirs))
    count = collections.Counter()
    size = collections.Counter()
    tar_disp = collections.Counter()
    total = 0
    for path in files:
        total += os.path.getsize(path)
        for cat, n, detail in classify(disassemble(path)):
            count[cat] += 1
            size[cat] += n
            if detail:
                tar_disp[detail] += 1
    print(f"{len(files)} fragments, {total} bytes ({total / 1024:.3f} KiB)")
    print(f"{'category':28} {'count':>7} {'bytes':>8} {'share':>7}")
    for cat in sorted(size, key=lambda c: -size[c]):
        print(f"{cat:28} {count[cat]:7} {size[cat]:8} "
              f"{100.0 * size[cat] / total:6.1f}%")
    movabs = [k for k in count if k.startswith("movabs:")]
    print(f"movabs total: {sum(count[k] for k in movabs)} "
          f"({sum(size[k] for k in movabs)} bytes)")
    print(f"TAR accesses: {sum(tar_disp.values())} "
          f"(disp8 {tar_disp['disp8']}, disp32 {tar_disp['disp32']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
