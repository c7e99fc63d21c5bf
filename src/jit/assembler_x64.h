//===- assembler_x64.h - Minimal x86-64 encoder --------------------------------===//
//
// A small hand-written x86-64 instruction encoder covering exactly what the
// trace compiler emits. Addressing is register-direct, [base + disp] (the
// disp8 form whenever the displacement fits) or RIP-relative; the compiler
// lowers indexed addressing to explicit address arithmetic.
//
// RIP-relative forms and rel32 branches take their target as a write-view
// pointer into the code pool and are computed against the write-view pc:
// both views of the pool share offsets, so the displacement is the same
// in the exec view the code runs from.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEJIT_JIT_ASSEMBLER_X64_H
#define TRACEJIT_JIT_ASSEMBLER_X64_H

#include <cstddef>
#include <cstdint>

namespace tracejit {

enum Gpr : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

enum Xmm : uint8_t {
  XMM0 = 0,
  XMM1,
  XMM2,
  XMM3,
  XMM4,
  XMM5,
  XMM6,
  XMM7,
  XMM8,
  XMM9,
  XMM10,
  XMM11,
  XMM12,
  XMM13,
  XMM14,
  XMM15,
};

/// x86 condition codes (for jcc/setcc).
enum Cond : uint8_t {
  CondO = 0x0,  // overflow
  CondNO = 0x1,
  CondB = 0x2,  // unsigned <
  CondAE = 0x3, // unsigned >=
  CondE = 0x4,
  CondNE = 0x5,
  CondBE = 0x6, // unsigned <=
  CondA = 0x7,  // unsigned >
  CondS = 0x8,
  CondNS = 0x9,
  CondP = 0xA,  // parity (unordered)
  CondNP = 0xB,
  CondL = 0xC,
  CondGE = 0xD,
  CondLE = 0xE,
  CondG = 0xF,
};

/// ModRM reg-field extensions of the group-1 ALU immediate ops (0x81/0x83).
enum : uint8_t {
  AluAdd = 0,
  AluOr = 1,
  AluAnd = 4,
  AluSub = 5,
  AluXor = 6,
  AluCmp = 7,
};

/// True when \p V survives a round trip through a sign-extended imm32.
constexpr bool fitsSImm32(int64_t V) { return V == (int64_t)(int32_t)V; }

/// Emits into caller-provided memory. The caller sizes the region; emit
/// never writes past Limit (overflow sets a flag checked at the end).
class Assembler {
public:
  Assembler(uint8_t *Buf, size_t Cap) : Begin(Buf), Cur(Buf),
                                        Limit(Buf + Cap) {}

  uint8_t *pc() const { return Cur; }
  uint8_t *begin() const { return Begin; }
  size_t size() const { return (size_t)(Cur - Begin); }
  bool overflowed() const { return Overflow; }

  // --- Moves -----------------------------------------------------------------
  void movRR64(Gpr Dst, Gpr Src);
  void movRR32(Gpr Dst, Gpr Src); ///< Zero-extends to 64 bits.
  /// Shortest encoding of \p Imm: `mov r32, imm32` (zero-extends) when it
  /// fits in 32 unsigned bits, `mov r64, simm32` when it sign-extends from
  /// 32 bits, `movabs` otherwise. Variable length: never patch its bytes.
  void movRI64(Gpr Dst, uint64_t Imm);
  void movRI32(Gpr Dst, int32_t Imm);
  void movRI8(Gpr Dst, uint8_t Imm); ///< Low byte only; the rest is kept.
  /// [base+disp] = imm: a dword, or (\p W) a qword sign-extended from it.
  void movMI(bool W, Gpr Base, int32_t Disp, int32_t Imm);
  void movRM64(Gpr Dst, Gpr Base, int32_t Disp); ///< dst = [base+disp]
  void movMR64(Gpr Base, int32_t Disp, Gpr Src); ///< [base+disp] = src
  void movRM32(Gpr Dst, Gpr Base, int32_t Disp);
  void movMR32(Gpr Base, int32_t Disp, Gpr Src);
  void movzxByteRM(Gpr Dst, Gpr Base, int32_t Disp);
  /// dst = [base + index*8]; \p Base must not be rbp/r13, \p Index not rsp.
  void movRMIndex64(Gpr Dst, Gpr Base, Gpr Index);
  void lea(Gpr Dst, Gpr Base, int32_t Disp); ///< dst = base + disp (64-bit)
  void leaRip(Gpr Dst, const uint8_t *Target); ///< dst = exec address of Target

  // --- 32-bit ALU ---------------------------------------------------------------
  /// `op r, r/m` (e.g. 0x03 = add), 64-bit when \p W.
  void aluRR(bool W, uint8_t OpcodeRM, Gpr Dst, Gpr Src);
  void aluRR32(uint8_t OpcodeRM, Gpr Dst, Gpr Src) {
    aluRR(false, OpcodeRM, Dst, Src);
  }
  void addRR32(Gpr D, Gpr S) { aluRR32(0x03, D, S); }
  void subRR32(Gpr D, Gpr S) { aluRR32(0x2B, D, S); }
  void andRR32(Gpr D, Gpr S) { aluRR32(0x23, D, S); }
  void orRR32(Gpr D, Gpr S) { aluRR32(0x0B, D, S); }
  void cmpRR32(Gpr A, Gpr B) { aluRR32(0x3B, A, B); }
  void imulRR32(Gpr Dst, Gpr Src);
  void imulRRI32(Gpr Dst, Gpr Src, int32_t Imm); ///< dst = src * imm
  void testRR(bool W, Gpr A, Gpr B);
  void testRR32(Gpr A, Gpr B) { testRR(false, A, B); }
  /// Group-1 ALU op with an immediate, the imm8 form when it fits; 64-bit
  /// (immediate sign-extended) when \p W. \p Ext is the ModRM reg field:
  /// one of the Alu* constants.
  void aluRI(bool W, uint8_t Ext, Gpr Dst, int32_t Imm);
  /// The same with a memory destination: `op dword/qword [base+disp], imm`.
  void aluMI(bool W, uint8_t Ext, Gpr Base, int32_t Disp, int32_t Imm);
  void cmpMI8(Gpr Base, int32_t Disp, uint8_t Imm); ///< cmp byte [m], imm8
  void shlCl32(Gpr Dst);
  void sarCl32(Gpr Dst);
  void shrCl32(Gpr Dst);
  void shlI32(Gpr Dst, uint8_t N);
  void sarI32(Gpr Dst, uint8_t N);
  void shrI32(Gpr Dst, uint8_t N);

  // --- 64-bit ALU ---------------------------------------------------------------
  void cmpRR64(Gpr A, Gpr B) { aluRR(true, 0x3B, A, B); }
  void shlI64(Gpr Dst, uint8_t N);
  void shrI64(Gpr Dst, uint8_t N);
  void sarI64(Gpr Dst, uint8_t N);
  void addRI64(Gpr Dst, int32_t Imm) { aluRI(true, AluAdd, Dst, Imm); }
  void movsxdRR(Gpr Dst, Gpr Src); ///< sign-extend 32 -> 64

  // --- SSE2 ------------------------------------------------------------------------
  void movsdRM(Xmm Dst, Gpr Base, int32_t Disp);
  void movsdMR(Gpr Base, int32_t Disp, Xmm Src);
  void movsdRR(Xmm Dst, Xmm Src);
  void sseRR(uint8_t Opcode, Xmm Dst, Xmm Src); ///< F2 0F <op> family
  void addsd(Xmm D, Xmm S) { sseRR(0x58, D, S); }
  void subsd(Xmm D, Xmm S) { sseRR(0x5C, D, S); }
  void mulsd(Xmm D, Xmm S) { sseRR(0x59, D, S); }
  void divsd(Xmm D, Xmm S) { sseRR(0x5E, D, S); }
  void ucomisd(Xmm A, Xmm B);
  void xorpd(Xmm D, Xmm S);
  void cvtsi2sd(Xmm Dst, Gpr Src, bool Src64 = false);
  void cvttsd2si(Gpr Dst, Xmm Src);
  void movqXmmGpr(Xmm Dst, Gpr Src);
  void movqGprXmm(Gpr Dst, Xmm Src);

  // --- Control flow -------------------------------------------------------------------
  void setcc(Cond C, Gpr Dst); ///< Sets low byte; caller zero-extends.
  void movzxByteRR(Gpr Dst, Gpr Src);
  /// jcc rel32 with a target known later; returns the fixup position.
  uint8_t *jccFwd(Cond C);
  /// jcc rel8 with a target known later (within 127 bytes); returns the
  /// fixup position for patchRel8.
  uint8_t *jcc8Fwd(Cond C);
  uint8_t *jmpFwd();
  void jmp(uint8_t *Target);
  /// jmp rel8; \p Target must be within rel8 range of the next instruction.
  void jmp8(uint8_t *Target);
  void jmpReg(Gpr R);
  void callReg(Gpr R);
  void callRel(const uint8_t *Target);  ///< call rel32
  void callRip(const uint8_t *Slot);    ///< call qword [rip+disp32]
  void push(Gpr R);
  void pop(Gpr R);
  void ret();
  void int3();
  void data64(uint64_t V) { emit64(V); } ///< A raw 8-byte word (tables).

  /// Patch a previously emitted rel32 at \p FixupPos to jump to \p Target.
  static void patchRel32(uint8_t *FixupPos, uint8_t *Target);
  static void patchRel8(uint8_t *FixupPos, uint8_t *Target);

private:
  void emit8(uint8_t B) {
    if (Cur < Limit)
      *Cur++ = B;
    else
      Overflow = true;
  }
  void emit32(uint32_t V);
  void emit64(uint64_t V);
  void rex(bool W, uint8_t Reg, uint8_t Rm, bool Force = false);
  void modRMReg(uint8_t Reg, uint8_t Rm);
  void modRMMem(uint8_t Reg, uint8_t Base, int32_t Disp);
  void modRMRip(uint8_t Reg, const uint8_t *Target);

  uint8_t *Begin;
  uint8_t *Cur;
  uint8_t *Limit;
  bool Overflow = false;
};

} // namespace tracejit

#endif // TRACEJIT_JIT_ASSEMBLER_X64_H
