//===- assembler_x64.cpp - Minimal x86-64 encoder -------------------------------===//

#include "jit/assembler_x64.h"

#include <cassert>
#include <cstring>

namespace tracejit {

void Assembler::emit32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    emit8((uint8_t)(V >> (8 * I)));
}

void Assembler::emit64(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    emit8((uint8_t)(V >> (8 * I)));
}

void Assembler::rex(bool W, uint8_t Reg, uint8_t Rm, bool Force) {
  uint8_t B = 0x40;
  if (W)
    B |= 8;
  if (Reg & 8)
    B |= 4;
  if (Rm & 8)
    B |= 1;
  if (B != 0x40 || Force)
    emit8(B);
}

void Assembler::modRMReg(uint8_t Reg, uint8_t Rm) {
  emit8((uint8_t)(0xC0 | ((Reg & 7) << 3) | (Rm & 7)));
}

void Assembler::modRMMem(uint8_t Reg, uint8_t Base, int32_t Disp) {
  uint8_t BaseLow = Base & 7;
  bool NeedSib = BaseLow == 4; // rsp/r12
  bool Disp8 = Disp >= -128 && Disp <= 127;
  // rbp/r13 as base cannot use mod=00.
  uint8_t Mod;
  if (Disp == 0 && BaseLow != 5)
    Mod = 0;
  else
    Mod = Disp8 ? 1 : 2;
  emit8((uint8_t)((Mod << 6) | ((Reg & 7) << 3) | (NeedSib ? 4 : BaseLow)));
  if (NeedSib)
    emit8((uint8_t)(0x24)); // scale=1, index=none(100), base=100
  if (Mod == 1)
    emit8((uint8_t)Disp);
  else if (Mod == 2)
    emit32((uint32_t)Disp);
}

// --- Moves ---------------------------------------------------------------------

void Assembler::movRR64(Gpr Dst, Gpr Src) {
  rex(true, Src, Dst);
  emit8(0x89);
  modRMReg(Src, Dst);
}

void Assembler::movRR32(Gpr Dst, Gpr Src) {
  rex(false, Src, Dst);
  emit8(0x89);
  modRMReg(Src, Dst);
}

void Assembler::movRI64(Gpr Dst, uint64_t Imm) {
  rex(true, 0, Dst);
  emit8((uint8_t)(0xB8 | (Dst & 7)));
  emit64(Imm);
}

void Assembler::movRI32(Gpr Dst, int32_t Imm) {
  rex(false, 0, Dst);
  emit8((uint8_t)(0xB8 | (Dst & 7)));
  emit32((uint32_t)Imm);
}

void Assembler::movRM64(Gpr Dst, Gpr Base, int32_t Disp) {
  rex(true, Dst, Base);
  emit8(0x8B);
  modRMMem(Dst, Base, Disp);
}

void Assembler::movMR64(Gpr Base, int32_t Disp, Gpr Src) {
  rex(true, Src, Base);
  emit8(0x89);
  modRMMem(Src, Base, Disp);
}

void Assembler::movRM32(Gpr Dst, Gpr Base, int32_t Disp) {
  rex(false, Dst, Base);
  emit8(0x8B);
  modRMMem(Dst, Base, Disp);
}

void Assembler::movMR32(Gpr Base, int32_t Disp, Gpr Src) {
  rex(false, Src, Base);
  emit8(0x89);
  modRMMem(Src, Base, Disp);
}

void Assembler::movzxByteRM(Gpr Dst, Gpr Base, int32_t Disp) {
  rex(false, Dst, Base);
  emit8(0x0F);
  emit8(0xB6);
  modRMMem(Dst, Base, Disp);
}

void Assembler::movRMIndex64(Gpr Dst, Gpr Base, Gpr Index) {
  assert((Base & 7) != 5 && Index != RSP);
  emit8((uint8_t)(0x48 | ((Dst & 8) ? 4 : 0) | ((Index & 8) ? 2 : 0) |
                  ((Base & 8) ? 1 : 0)));
  emit8(0x8B);
  emit8((uint8_t)(((Dst & 7) << 3) | 4));                    // mod=00, SIB
  emit8((uint8_t)(0xC0 | ((Index & 7) << 3) | (Base & 7))); // scale=8
}

// --- ALU ------------------------------------------------------------------------

void Assembler::aluRR32(uint8_t OpcodeRM, Gpr Dst, Gpr Src) {
  rex(false, Dst, Src);
  emit8(OpcodeRM);
  modRMReg(Dst, Src);
}

void Assembler::aluRR64(uint8_t OpcodeRM, Gpr Dst, Gpr Src) {
  rex(true, Dst, Src);
  emit8(OpcodeRM);
  modRMReg(Dst, Src);
}

void Assembler::imulRR32(Gpr Dst, Gpr Src) {
  rex(false, Dst, Src);
  emit8(0x0F);
  emit8(0xAF);
  modRMReg(Dst, Src);
}

void Assembler::testRR32(Gpr A, Gpr B) {
  rex(false, B, A);
  emit8(0x85);
  modRMReg(B, A);
}

void Assembler::addRI32(Gpr Dst, int32_t Imm) {
  rex(false, 0, Dst);
  emit8(0x81);
  modRMReg(0, Dst);
  emit32((uint32_t)Imm);
}

void Assembler::cmpRI32(Gpr Reg, int32_t Imm) {
  rex(false, 7, Reg);
  emit8(0x81);
  modRMReg(7, Reg);
  emit32((uint32_t)Imm);
}

void Assembler::shlCl32(Gpr Dst) {
  rex(false, 4, Dst);
  emit8(0xD3);
  modRMReg(4, Dst);
}
void Assembler::sarCl32(Gpr Dst) {
  rex(false, 7, Dst);
  emit8(0xD3);
  modRMReg(7, Dst);
}
void Assembler::shrCl32(Gpr Dst) {
  rex(false, 5, Dst);
  emit8(0xD3);
  modRMReg(5, Dst);
}
void Assembler::shlI32(Gpr Dst, uint8_t N) {
  rex(false, 4, Dst);
  emit8(0xC1);
  modRMReg(4, Dst);
  emit8(N);
}
void Assembler::sarI32(Gpr Dst, uint8_t N) {
  rex(false, 7, Dst);
  emit8(0xC1);
  modRMReg(7, Dst);
  emit8(N);
}
void Assembler::shrI32(Gpr Dst, uint8_t N) {
  rex(false, 5, Dst);
  emit8(0xC1);
  modRMReg(5, Dst);
  emit8(N);
}

void Assembler::shlI64(Gpr Dst, uint8_t N) {
  rex(true, 4, Dst);
  emit8(0xC1);
  modRMReg(4, Dst);
  emit8(N);
}
void Assembler::shrI64(Gpr Dst, uint8_t N) {
  rex(true, 5, Dst);
  emit8(0xC1);
  modRMReg(5, Dst);
  emit8(N);
}
void Assembler::sarI64(Gpr Dst, uint8_t N) {
  rex(true, 7, Dst);
  emit8(0xC1);
  modRMReg(7, Dst);
  emit8(N);
}

void Assembler::addRI64(Gpr Dst, int32_t Imm) {
  rex(true, 0, Dst);
  emit8(0x81);
  modRMReg(0, Dst);
  emit32((uint32_t)Imm);
}

void Assembler::movsxdRR(Gpr Dst, Gpr Src) {
  rex(true, Dst, Src);
  emit8(0x63);
  modRMReg(Dst, Src);
}

// --- SSE2 ------------------------------------------------------------------------

void Assembler::movsdRM(Xmm Dst, Gpr Base, int32_t Disp) {
  emit8(0xF2);
  rex(false, Dst, Base);
  emit8(0x0F);
  emit8(0x10);
  modRMMem(Dst, Base, Disp);
}

void Assembler::movsdMR(Gpr Base, int32_t Disp, Xmm Src) {
  emit8(0xF2);
  rex(false, Src, Base);
  emit8(0x0F);
  emit8(0x11);
  modRMMem(Src, Base, Disp);
}

void Assembler::movsdRR(Xmm Dst, Xmm Src) {
  emit8(0xF2);
  rex(false, Dst, Src);
  emit8(0x0F);
  emit8(0x10);
  modRMReg(Dst, Src);
}

void Assembler::sseRR(uint8_t Opcode, Xmm Dst, Xmm Src) {
  emit8(0xF2);
  rex(false, Dst, Src);
  emit8(0x0F);
  emit8(Opcode);
  modRMReg(Dst, Src);
}

void Assembler::ucomisd(Xmm A, Xmm B) {
  emit8(0x66);
  rex(false, A, B);
  emit8(0x0F);
  emit8(0x2E);
  modRMReg(A, B);
}

void Assembler::xorpd(Xmm D, Xmm S) {
  emit8(0x66);
  rex(false, D, S);
  emit8(0x0F);
  emit8(0x57);
  modRMReg(D, S);
}

void Assembler::cvtsi2sd(Xmm Dst, Gpr Src, bool Src64) {
  emit8(0xF2);
  rex(Src64, Dst, Src, /*Force=*/false);
  emit8(0x0F);
  emit8(0x2A);
  modRMReg(Dst, Src);
}

void Assembler::cvttsd2si(Gpr Dst, Xmm Src) {
  emit8(0xF2);
  rex(false, Dst, Src);
  emit8(0x0F);
  emit8(0x2C);
  modRMReg(Dst, Src);
}

void Assembler::movqXmmGpr(Xmm Dst, Gpr Src) {
  emit8(0x66);
  rex(true, Dst, Src, /*Force=*/true);
  emit8(0x0F);
  emit8(0x6E);
  modRMReg(Dst, Src);
}

void Assembler::movqGprXmm(Gpr Dst, Xmm Src) {
  emit8(0x66);
  rex(true, Src, Dst, /*Force=*/true);
  emit8(0x0F);
  emit8(0x7E);
  modRMReg(Src, Dst);
}

// --- Control flow -----------------------------------------------------------------

void Assembler::setcc(Cond C, Gpr Dst) {
  // REX (possibly empty-meaning) is required to address sil/dil/spl/bpl.
  rex(false, 0, Dst, /*Force=*/Dst >= 4);
  emit8(0x0F);
  emit8((uint8_t)(0x90 | C));
  modRMReg(0, Dst);
}

void Assembler::movzxByteRR(Gpr Dst, Gpr Src) {
  rex(false, Dst, Src, /*Force=*/Src >= 4);
  emit8(0x0F);
  emit8(0xB6);
  modRMReg(Dst, Src);
}

uint8_t *Assembler::jccFwd(Cond C) {
  emit8(0x0F);
  emit8((uint8_t)(0x80 | C));
  uint8_t *Fix = Cur;
  emit32(0);
  return Fix;
}

uint8_t *Assembler::jmpFwd() {
  emit8(0xE9);
  uint8_t *Fix = Cur;
  emit32(0);
  return Fix;
}

void Assembler::jmp(uint8_t *Target) {
  emit8(0xE9);
  int64_t Rel = Target - (Cur + 4);
  emit32((uint32_t)(int32_t)Rel);
}

void Assembler::jmp8(uint8_t *Target) {
  emit8(0xEB);
  int64_t Rel = Target - (Cur + 1);
  assert(Overflow || (Rel >= -128 && Rel <= 127));
  emit8((uint8_t)(int8_t)Rel);
}

void Assembler::jmpReg(Gpr R) {
  rex(false, 4, R);
  emit8(0xFF);
  modRMReg(4, R);
}

void Assembler::callReg(Gpr R) {
  rex(false, 2, R);
  emit8(0xFF);
  modRMReg(2, R);
}

void Assembler::push(Gpr R) {
  rex(false, 0, R);
  emit8((uint8_t)(0x50 | (R & 7)));
}

void Assembler::pop(Gpr R) {
  rex(false, 0, R);
  emit8((uint8_t)(0x58 | (R & 7)));
}

void Assembler::ret() { emit8(0xC3); }
void Assembler::int3() { emit8(0xCC); }

void Assembler::patchRel32(uint8_t *FixupPos, uint8_t *Target) {
  int64_t Rel = Target - (FixupPos + 4);
  int32_t R32 = (int32_t)Rel;
  std::memcpy(FixupPos, &R32, 4);
}

} // namespace tracejit
