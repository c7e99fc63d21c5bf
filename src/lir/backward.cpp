//===- backward.cpp - Dead store and dead code elimination -------------------===//

#include "lir/backward.h"

#include <algorithm>
#include <unordered_set>

#include "jit/fragment.h"

namespace tracejit {

uint32_t eliminateDeadStores(std::vector<LIns *> &Body, uint32_t NumGlobals,
                             const TypeMap *Entry) {
  // Determine the slot-domain size.
  uint32_t MaxSlot = 0;
  auto NoteSlot = [&](uint32_t S) {
    if (S > MaxSlot)
      MaxSlot = S;
  };
  std::vector<uint32_t> TarLoadSlots;
  // Slots the next iteration can observe without an explicit load: any
  // exit's writeback reads its typed slots straight from the TAR, so a
  // store feeding an exit across the backedge is live even though no load
  // in the body mentions it.
  uint32_t BackedgeExitSlots = 0;
  for (LIns *I : Body) {
    if (I->isLoad() && I->Loc == Acc::Tar) {
      uint32_t S = (uint32_t)(I->Disp / 8);
      NoteSlot(S + 1);
      TarLoadSlots.push_back(S);
    } else if (I->isStore() && I->Loc == Acc::Tar) {
      NoteSlot((uint32_t)(I->Disp / 8) + 1);
    } else if (I->Exit) {
      NoteSlot(NumGlobals + I->Exit->Sp);
      if (NumGlobals + I->Exit->Sp > BackedgeExitSlots)
        BackedgeExitSlots = NumGlobals + I->Exit->Sp;
    } else if (I->Op == LOp::JmpFrag || I->Op == LOp::TreeCall) {
      NoteSlot(I->Target->EntryTypes.size());
      if (I->Target->EntryTypes.size() > BackedgeExitSlots)
        BackedgeExitSlots = I->Target->EntryTypes.size();
    }
  }

  std::vector<bool> Live(MaxSlot, false);
  auto LiveRange = [&](uint32_t End) {
    if (End > Live.size())
      End = (uint32_t)Live.size();
    for (uint32_t S = 0; S < End; ++S)
      Live[S] = true;
  };
  // A fragment entered with map \p M reads exactly the slots it types.
  auto LiveTyped = [&](const TypeMap &M) {
    uint32_t End = std::min(M.size(), (uint32_t)Live.size());
    for (uint32_t S = 0; S < End; ++S)
      if (M.typed(S))
        Live[S] = true;
  };
  // An exit writes back the slots its map types from the TAR, except its
  // exit-constant slots, which it restores from the descriptor.
  auto ExitLive = [&](const ExitDescriptor *E) {
    uint32_t End = std::min(NumGlobals + E->Sp, (uint32_t)Live.size());
    const ExitConstSlot *C = E->ConstSlots.data();
    const ExitConstSlot *CEnd = C + E->ConstSlots.size();
    for (uint32_t S = 0; S < End; ++S) {
      if (C != CEnd && C->Slot == S)
        ++C;
      else if (S >= E->Types.size() || E->Types.typed(S))
        Live[S] = true;
    }
  };

  uint32_t Removed = 0;
  for (size_t K = Body.size(); K-- > 0;) {
    LIns *I = Body[K];
    switch (I->Op) {
    case LOp::Loop:
      // The next iteration re-imports everything the trace loads from the
      // TAR anywhere in its body, and every exit it can take writes back
      // from the TAR directly -- so the loop-header state (the slots the
      // entry typemap types) must be intact across the backedge. Stack
      // slots above the header depth are exempt: any exit deep enough to
      // read one is preceded, in its own iteration, by the pushes that
      // store it.
      for (uint32_t S : TarLoadSlots)
        if (S < Live.size())
          Live[S] = true;
      if (Entry)
        LiveTyped(*Entry);
      else
        LiveRange(BackedgeExitSlots);
      break;
    case LOp::JmpFrag:
      // The target fragment reads the slots its entry map types.
      LiveTyped(I->Target->EntryTypes);
      break;
    case LOp::TreeCall:
      // The inner tree reads its typed entry slots, and its exits restore
      // from the TAR; it may also write slots, but treating those as live
      // is conservative and safe.
      LiveTyped(I->Target->EntryTypes);
      if (I->Exit)
        ExitLive(I->Exit);
      break;
    case LOp::GuardT:
    case LOp::GuardF:
    case LOp::AddOvI:
    case LOp::SubOvI:
    case LOp::MulOvI:
    case LOp::Exit:
      if (I->Exit)
        ExitLive(I->Exit);
      break;
    case LOp::StI:
    case LOp::StQ:
    case LOp::StD: {
      if (I->Loc != Acc::Tar)
        break; // heap or VM store: always observable
      uint32_t S = (uint32_t)(I->Disp / 8);
      if (S >= Live.size() || !Live[S]) {
        Body.erase(Body.begin() + (long)K);
        ++Removed;
        break;
      }
      Live[S] = false; // this store satisfies later reads
      break;
    }
    case LOp::LdI:
    case LOp::LdQ:
    case LOp::LdD:
    case LOp::LdUB:
      if (I->Loc == Acc::Tar) {
        uint32_t S = (uint32_t)(I->Disp / 8);
        if (S < Live.size())
          Live[S] = true;
      }
      break;
    default:
      break;
    }
  }
  return Removed;
}

uint32_t eliminateDeadCode(std::vector<LIns *> &Body) {
  std::unordered_set<const LIns *> Marked;
  auto Mark = [&](auto &&Self, LIns *I) -> void {
    if (!I || Marked.count(I))
      return;
    Marked.insert(I);
    // Stores keep A (value) and B (base); others keep operands as defined.
    Self(Self, I->A);
    Self(Self, I->B);
    for (uint32_t K = 0; K < I->NCallArgs; ++K)
      Self(Self, I->CallArgs[K]);
  };

  for (LIns *I : Body) {
    bool Root = false;
    switch (I->Op) {
    case LOp::StI:
    case LOp::StQ:
    case LOp::StD:
    case LOp::GuardT:
    case LOp::GuardF:
    case LOp::AddOvI:
    case LOp::SubOvI:
    case LOp::MulOvI:
    case LOp::Exit:
    case LOp::TreeCall:
    case LOp::Loop:
    case LOp::JmpFrag:
      Root = true;
      break;
    case LOp::Call:
      Root = !I->CI->Pure;
      break;
    default:
      break;
    }
    if (Root)
      Mark(Mark, I);
  }

  uint32_t Removed = 0;
  std::vector<LIns *> Kept;
  Kept.reserve(Body.size());
  for (LIns *I : Body) {
    if (Marked.count(I) || I->Op == LOp::ParamTar) {
      Kept.push_back(I);
    } else {
      ++Removed;
    }
  }
  Body.swap(Kept);
  return Removed;
}

} // namespace tracejit
