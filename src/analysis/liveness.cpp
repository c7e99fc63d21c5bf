//===- liveness.cpp - Locals live at each loop header ---------------------===//
//
// A textbook backward dataflow pass over the bytecode CFG (blockStarts, the
// same blocks the abstract interpreter uses): a block's live-in set is what
// it reads before writing, plus its live-out minus what it writes; live-out
// is the union over its successors. Locals are touched only by
// GetLocal/SetLocal (scripts have no closures and no `arguments`, so
// neither a callee nor a return reads a frame's locals), and the sets are
// bit vectors over [0, NumLocals). One fixpoint over the whole function
// gives the live-in set of every loop header; iterating the blocks in
// reverse until nothing changes reaches it in a few sweeps.
//
//===----------------------------------------------------------------------===//

#include <algorithm>

#include "analysis/analysis.h"

namespace tracejit {

namespace {

using Bits = std::vector<uint64_t>;

bool testBit(const Bits &B, uint32_t K) { return (B[K / 64] >> (K % 64)) & 1; }
void setBit(Bits &B, uint32_t K) { B[K / 64] |= 1ull << (K % 64); }

struct Block {
  Bits Use, Kill, In;
  uint32_t Succ[2] = {~0u, ~0u}; ///< Block indices; ~0u for none.
};

} // namespace

bool computeLoopLiveness(const FunctionScript &S,
                         std::vector<std::vector<uint8_t>> &Live) {
  const uint32_t NL = S.NumLocals;
  Live.assign(S.Loops.size(), std::vector<uint8_t>(NL, 1));
  if (NL == 0 || S.Loops.empty())
    return true;

  // Anything malformed -- a CFG blockStarts rejects, an out-of-range local,
  // a header that is not a loop-header op -- leaves every local live.
  std::vector<uint32_t> Starts;
  if (!blockStarts(S, Starts))
    return false;
  const uint32_t Size = (uint32_t)S.Code.size();
  auto BlockOf = [&](uint32_t Pc) {
    auto It = std::lower_bound(Starts.begin(), Starts.end(), Pc);
    return It != Starts.end() && *It == Pc ? (uint32_t)(It - Starts.begin())
                                           : ~0u;
  };
  std::vector<uint32_t> HeaderBlock;
  for (const LoopRecord &L : S.Loops) {
    uint32_t BI = BlockOf(L.HeaderPc);
    if (BI == ~0u)
      return false;
    Op O = S.opAt(L.HeaderPc);
    if (O != Op::LoopHeader && O != Op::Nop3)
      return false;
    HeaderBlock.push_back(BI);
  }

  const size_t Words = (NL + 63) / 64;
  std::vector<Block> Blocks(Starts.size());
  for (uint32_t BI = 0; BI < Blocks.size(); ++BI) {
    Block &B = Blocks[BI];
    B.Use.assign(Words, 0);
    B.Kill.assign(Words, 0);
    B.In.assign(Words, 0);
    uint32_t End = BI + 1 < Starts.size() ? Starts[BI + 1] : Size;
    uint32_t Last = Starts[BI];
    for (uint32_t Pc = Starts[BI]; Pc < End;
         Pc += 1 + opInfo(S.opAt(Pc)).OperandBytes) {
      Last = Pc;
      Op O = S.opAt(Pc);
      if (O != Op::GetLocal && O != Op::SetLocal)
        continue;
      uint32_t K = S.u16At(Pc + 1);
      if (K >= NL)
        return false;
      if (O == Op::SetLocal)
        setBit(B.Kill, K);
      else if (!testBit(B.Kill, K))
        setBit(B.Use, K);
    }
    Op O = S.opAt(Last);
    uint32_t N = 0;
    if (opIsJump(O))
      B.Succ[N++] = BlockOf(S.u32At(Last + 1));
    if (!opIsTerminator(O) && End < Size)
      B.Succ[N++] = BI + 1;
  }

  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t BI = Blocks.size(); BI-- > 0;) {
      Block &B = Blocks[BI];
      for (size_t W = 0; W < Words; ++W) {
        uint64_t Out = 0;
        for (uint32_t Succ : B.Succ)
          if (Succ != ~0u)
            Out |= Blocks[Succ].In[W];
        uint64_t In = B.Use[W] | (Out & ~B.Kill[W]);
        if (In != B.In[W]) {
          B.In[W] = In;
          Changed = true;
        }
      }
    }
  }

  for (size_t I = 0; I < S.Loops.size(); ++I)
    for (uint32_t K = 0; K < NL; ++K)
      Live[I][K] = testBit(Blocks[HeaderBlock[I]].In, K);
  return true;
}

const std::vector<uint8_t> &loopLiveLocals(FunctionScript &S, LoopRecord &L) {
  if (L.LiveLocals.size() != S.NumLocals) {
    std::vector<std::vector<uint8_t>> Live;
    computeLoopLiveness(S, Live);
    for (size_t I = 0; I < S.Loops.size(); ++I)
      S.Loops[I].LiveLocals = std::move(Live[I]);
  }
  return L.LiveLocals;
}

} // namespace tracejit
