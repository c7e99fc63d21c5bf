//===- executor.cpp - Portable LIR executor backend ----------------------------===//

#include "jit/executor.h"

#include <vector>

#include "interp/vmcontext.h"
#include "lir/lir.h"

namespace tracejit {

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

    ExitDescriptor *Taken = nullptr; // the exit this instruction leaves by
    switch (I->Op) {
    case LOp::ParamTar:
      R = (uint64_t)(uintptr_t)Tar;
      break;
    case LOp::ImmI:
    case LOp::ImmQ:
    case LOp::ImmD:
      R = I->immWord();
      break;

    case LOp::LdI: {
      int32_t *P = (int32_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      // An absolute address is a VM channel, such as the preempt flag that
      // deadline and host threads raise atomically: read it as the native
      // load does, a relaxed atomic load, not a racy plain one.
      R = (uint32_t)(I->A->Op == LOp::ImmQ
                         ? __atomic_load_n(P, __ATOMIC_RELAXED)
                         : *P);
      break;
    }
    case LOp::LdQ:
    case LOp::LdD:
      R = *(uint64_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      break;
    case LOp::LdUB:
      R = *(uint8_t *)((uint8_t *)(uintptr_t)V(I->A) + I->Disp);
      break;
    case LOp::StI:
      *(int32_t *)((uint8_t *)(uintptr_t)V(I->B) + I->Disp) = (int32_t)V(I->A);
      break;
    case LOp::StQ:
    case LOp::StD:
      *(uint64_t *)((uint8_t *)(uintptr_t)V(I->B) + I->Disp) = V(I->A);
      break;

    case LOp::Call: {
      uint64_t Args[6] = {};
      for (uint32_t K = 0; K < I->NCallArgs; ++K)
        Args[K] = V(I->CallArgs[K]);
      R = I->CI->Shim ? I->CI->Shim(I->CI->Addr, Args) : 0;
      break;
    }

    case LOp::GuardT: // exits if the condition is false
    case LOp::GuardF: // exits if it is true
      if (((uint32_t)V(I->A) != 0) != (I->Op == LOp::GuardT))
        Taken = I->Exit;
      break;

    case LOp::Exit:
      Taken = I->Exit;
      break;

    case LOp::TreeCall: {
      ExitDescriptor *Inner = run(I->Target, Tar, Ctx);
      if (Inner != I->ExpectedExit) {
        Ctx->LastNestedExit = Inner;
        Taken = I->Exit;
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

    default: // the value ops, with the opcode table's constant semantics
      if (!evalLir(I->Op, V(I->A), I->B ? V(I->B) : 0, R))
        Taken = I->Exit; // an overflow-checked op overflowed
      break;
    }

    if (Taken) {
      if (!Taken->Target)
        return Taken;
      // Stitched: continue in the branch fragment with the same TAR.
      F = Taken->Target;
      goto restart_fragment;
    }
  }
  // Falling off the end should not happen (traces end in Loop/Exit/JmpFrag),
  // but be safe: report the first exit or nullptr.
  return F->Exits.empty() ? nullptr : F->Exits[0].get();
}

} // namespace tracejit
