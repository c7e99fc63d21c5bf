//===- executor.cpp - Portable LIR executor backend ----------------------------===//

#include "jit/executor.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "interp/vmcontext.h"
#include "lir/lir.h"

namespace tracejit {

namespace {

inline double asD(uint64_t W) {
  double D;
  std::memcpy(&D, &W, 8);
  return D;
}
inline uint64_t fromD(double D) {
  uint64_t W;
  std::memcpy(&W, &D, 8);
  return W;
}
inline int32_t asI(uint64_t W) { return (int32_t)(uint32_t)W; }
inline uint64_t fromI(int32_t I) { return (uint64_t)(uint32_t)I; }

} // namespace

ExitDescriptor *LirExecutor::run(Fragment *F, uint8_t *Tar, VMContext *Ctx) {
  std::vector<uint64_t> Vals;

restart_fragment:
  {
    uint32_t MaxId = 0;
    for (LIns *I : F->Body)
      if (I->Id > MaxId)
        MaxId = I->Id;
    Vals.assign((size_t)MaxId + 1, 0);
  }

  size_t P = 0;
restart_body:
  for (; P < F->Body.size(); ++P) {
    LIns *I = F->Body[P];
    uint64_t &R = Vals[I->Id];
    auto V = [&](LIns *X) -> uint64_t { return Vals[X->Id]; };

    // Take a guard exit: transfer to a stitched branch or return.
    auto TakeExit = [&](ExitDescriptor *E) -> Fragment * {
      if (E->Target) {
        // Stitched: continue in the branch fragment with the same TAR.
        return E->Target;
      }
      return nullptr;
    };

    switch (I->Op) {
    case LOp::ParamTar:
      R = (uint64_t)(uintptr_t)Tar;
      break;
    case LOp::ImmI:
      R = fromI(I->Imm.ImmI32);
      break;
    case LOp::ImmQ:
      R = (uint64_t)I->Imm.ImmQ64;
      break;
    case LOp::ImmD:
      R = fromD(I->Imm.ImmDbl);
      break;

    case LOp::LdI: {
      int32_t *P = (int32_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      // An absolute address is a VM channel, such as the preempt flag that
      // deadline and host threads raise atomically: read it as the native
      // load does, a relaxed atomic load, not a racy plain one.
      R = fromI(I->A->Op == LOp::ImmQ ? __atomic_load_n(P, __ATOMIC_RELAXED)
                                      : *P);
      break;
    }
    case LOp::LdQ:
      R = *(uint64_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      break;
    case LOp::LdD:
      R = *(uint64_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      break;
    case LOp::LdUB:
      R = *(uint8_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      break;
    case LOp::StI:
      *(int32_t *)((uint8_t *)(uintptr_t)V(I->B) + I->Disp) = asI(V(I->A));
      break;
    case LOp::StQ:
    case LOp::StD:
      *(uint64_t *)((uint8_t *)(uintptr_t)V(I->B) + I->Disp) = V(I->A);
      break;

    // Unchecked int32 arithmetic wraps, as the native add/sub do.
    case LOp::AddI:
      R = fromI((int32_t)((uint32_t)asI(V(I->A)) + (uint32_t)asI(V(I->B))));
      break;
    case LOp::SubI:
      R = fromI((int32_t)((uint32_t)asI(V(I->A)) - (uint32_t)asI(V(I->B))));
      break;
    case LOp::MulI:
      R = fromI((int32_t)((int64_t)asI(V(I->A)) * asI(V(I->B))));
      break;
    case LOp::AndI:
      R = fromI(asI(V(I->A)) & asI(V(I->B)));
      break;
    case LOp::OrI:
      R = fromI(asI(V(I->A)) | asI(V(I->B)));
      break;
    case LOp::XorI:
      R = fromI(asI(V(I->A)) ^ asI(V(I->B)));
      break;
    case LOp::ShlI:
      R = fromI((int32_t)((uint32_t)asI(V(I->A)) << (asI(V(I->B)) & 31)));
      break;
    case LOp::ShrI:
      R = fromI(asI(V(I->A)) >> (asI(V(I->B)) & 31));
      break;
    case LOp::UshrI:
      R = fromI((int32_t)((uint32_t)asI(V(I->A)) >> (asI(V(I->B)) & 31)));
      break;

    case LOp::AddOvI:
    case LOp::SubOvI:
    case LOp::MulOvI: {
      int64_t X = asI(V(I->A)), Y = asI(V(I->B));
      int64_t Full = I->Op == LOp::AddOvI   ? X + Y
                     : I->Op == LOp::SubOvI ? X - Y
                                            : X * Y;
      if (Full < INT32_MIN || Full > INT32_MAX) {
        if (Fragment *T = TakeExit(I->Exit)) {
          F = T;
          goto restart_fragment;
        }
        return I->Exit;
      }
      R = fromI((int32_t)Full);
      break;
    }

    case LOp::AddQ:
      R = V(I->A) + V(I->B);
      break;
    case LOp::AndQ:
      R = V(I->A) & V(I->B);
      break;
    case LOp::OrQ:
      R = V(I->A) | V(I->B);
      break;
    case LOp::ShlQ:
      R = V(I->A) << (asI(V(I->B)) & 63);
      break;
    case LOp::ShrQ:
      R = V(I->A) >> (asI(V(I->B)) & 63);
      break;
    case LOp::SarQ:
      R = (uint64_t)((int64_t)V(I->A) >> (asI(V(I->B)) & 63));
      break;
    case LOp::Q2I:
    case LOp::UI2Q:
      R = (uint32_t)V(I->A);
      break;

    case LOp::EqI:
      R = asI(V(I->A)) == asI(V(I->B));
      break;
    case LOp::NeI:
      R = asI(V(I->A)) != asI(V(I->B));
      break;
    case LOp::LtI:
      R = asI(V(I->A)) < asI(V(I->B));
      break;
    case LOp::LeI:
      R = asI(V(I->A)) <= asI(V(I->B));
      break;
    case LOp::GtI:
      R = asI(V(I->A)) > asI(V(I->B));
      break;
    case LOp::GeI:
      R = asI(V(I->A)) >= asI(V(I->B));
      break;
    case LOp::LtUI:
      R = (uint32_t)asI(V(I->A)) < (uint32_t)asI(V(I->B));
      break;
    case LOp::EqQ:
      R = V(I->A) == V(I->B);
      break;

    case LOp::AddD:
      R = fromD(asD(V(I->A)) + asD(V(I->B)));
      break;
    case LOp::SubD:
      R = fromD(asD(V(I->A)) - asD(V(I->B)));
      break;
    case LOp::MulD:
      R = fromD(asD(V(I->A)) * asD(V(I->B)));
      break;
    case LOp::DivD:
      R = fromD(asD(V(I->A)) / asD(V(I->B)));
      break;
    case LOp::NegD:
      R = fromD(-asD(V(I->A)));
      break;
    case LOp::EqD:
      R = asD(V(I->A)) == asD(V(I->B));
      break;
    case LOp::NeD:
      R = asD(V(I->A)) != asD(V(I->B));
      break;
    case LOp::LtD:
      R = asD(V(I->A)) < asD(V(I->B));
      break;
    case LOp::LeD:
      R = asD(V(I->A)) <= asD(V(I->B));
      break;
    case LOp::GtD:
      R = asD(V(I->A)) > asD(V(I->B));
      break;
    case LOp::GeD:
      R = asD(V(I->A)) >= asD(V(I->B));
      break;

    case LOp::I2D:
      R = fromD((double)asI(V(I->A)));
      break;
    case LOp::UI2D:
      R = fromD((double)(uint32_t)asI(V(I->A)));
      break;
    case LOp::D2I:
      R = fromI((int32_t)asD(V(I->A)));
      break;

    case LOp::Call: {
      uint64_t Args[6] = {};
      for (uint32_t K = 0; K < I->NCallArgs; ++K)
        Args[K] = V(I->CallArgs[K]);
      R = I->CI->Shim ? I->CI->Shim(I->CI->Addr, Args) : 0;
      break;
    }

    case LOp::GuardT:
    case LOp::GuardF: {
      bool C = asI(V(I->A)) != 0;
      bool Exits = I->Op == LOp::GuardT ? !C : C;
      if (Exits) {
        if (Fragment *T = TakeExit(I->Exit)) {
          F = T;
          goto restart_fragment;
        }
        return I->Exit;
      }
      break;
    }

    case LOp::Exit: {
      if (Fragment *T = TakeExit(I->Exit)) {
        F = T;
        goto restart_fragment;
      }
      return I->Exit;
    }

    case LOp::TreeCall: {
      ExitDescriptor *Inner = run(I->Target, Tar, Ctx);
      if (Inner != I->ExpectedExit) {
        Ctx->LastNestedExit = Inner;
        if (Fragment *T = TakeExit(I->Exit)) {
          F = T;
          goto restart_fragment;
        }
        return I->Exit;
      }
      break;
    }

    case LOp::Loop:
      // Back edge re-enters after the hoisted prologue (PrologueEnd == 0
      // when the loop optimizer did not split this body). Vals persist, so
      // prologue-computed values remain live across iterations.
      P = F->PrologueEnd;
      goto restart_body;

    case LOp::JmpFrag:
      // Enter the target at 0 so its hoisted entry guards re-validate state.
      F = I->Target;
      goto restart_fragment;

    case LOp::NumOps:
      return nullptr;
    }
  }
  // Falling off the end should not happen (traces end in Loop/Exit/JmpFrag),
  // but be safe: report the first exit or nullptr.
  return F->Exits.empty() ? nullptr : F->Exits[0].get();
}

} // namespace tracejit
