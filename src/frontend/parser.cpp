//===- parser.cpp - One-pass parser / bytecode compiler --------------------===//

#include "frontend/parser.h"

#include <cassert>
#include <cmath>

namespace tracejit {

Parser::Parser(VMContext &C, std::string_view Source) : Ctx(C), Lex(Source) {
  advance();
}

void Parser::advance() {
  Prev = Cur;
  Cur = Lex.next();
  if (Cur.Kind == Tok::Error)
    errorAt(Cur, "unexpected character");
}

bool Parser::accept(Tok K) {
  if (!check(K))
    return false;
  advance();
  return true;
}

void Parser::expect(Tok K, const char *What) {
  if (check(K)) {
    advance();
    return;
  }
  errorAt(Cur, std::string("expected ") + What);
}

void Parser::errorAt(const Token &T, const std::string &Msg) {
  if (HadError)
    return;
  HadError = true;
  Err.Kind = T.Kind == Tok::Error ? ErrorKind::Lex : ErrorKind::Parse;
  Err.Line = T.Line;
  Err.Col = T.Col;
  Err.Message = Msg;
  if (!T.Text.empty())
    Err.Message += " (at '" + std::string(T.Text) + "')";
  ErrorMsg = "line " + std::to_string(T.Line) + ": " + Err.Message;
}

// --- Emission ----------------------------------------------------------------

void Parser::emitOp(Op O, int StackDelta) {
  // Source position for runtime errors: one sparse note per position change
  // (most consecutive bytecodes share a line/col, so the table stays small).
  const Token &T = Prev.Line ? Prev : Cur;
  if (T.Line &&
      (Script->LineNotes.empty() || Script->LineNotes.back().Line != T.Line ||
       Script->LineNotes.back().Col != T.Col))
    Script->LineNotes.push_back({(uint32_t)Script->Code.size(), T.Line, T.Col});
  Script->Code.push_back((uint8_t)O);
  adjustStack(StackDelta);
}

void Parser::emitU16(uint16_t V) {
  Script->Code.push_back((uint8_t)(V & 0xff));
  Script->Code.push_back((uint8_t)(V >> 8));
}

void Parser::emitU32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Script->Code.push_back((uint8_t)(V >> (8 * I)));
}

uint32_t Parser::emitJump(Op O, int StackDelta) {
  emitOp(O, StackDelta);
  uint32_t At = here();
  emitU32(0xffffffff);
  return At;
}

void Parser::patchJump(uint32_t OperandPc, uint32_t Target) {
  for (int I = 0; I < 4; ++I)
    Script->Code[OperandPc + I] = (uint8_t)(Target >> (8 * I));
}

void Parser::adjustStack(int Delta) {
  StackDepth += Delta;
  if (StackDepth > (int)Script->MaxStack)
    Script->MaxStack = (uint32_t)StackDepth;
  // After a syntax error, recovery paths may emit unbalanced code that is
  // never run; only assert the invariant on clean parses.
  assert((HadError || StackDepth >= 0) && "stack underflow in compiler");
  if (StackDepth < 0)
    StackDepth = 0;
}

uint16_t Parser::addConst(Value V) {
  for (size_t I = 0; I < Script->Consts.size(); ++I)
    if (Script->Consts[I] == V)
      return (uint16_t)I;
  Script->Consts.push_back(V);
  return (uint16_t)(Script->Consts.size() - 1);
}

uint16_t Parser::addNumberConst(double D) {
  if (D == std::floor(D) && Value::fitsInt31((int64_t)D) && !std::isinf(D) &&
      !(D == 0 && std::signbit(D)))
    return addConst(Value::makeInt((int32_t)D));
  // Compare double constants by bits to dedupe.
  for (size_t I = 0; I < Script->Consts.size(); ++I) {
    Value V = Script->Consts[I];
    if (V.isDoubleCell() && V.toDoubleCell()->Val == D)
      return (uint16_t)I;
  }
  Script->Consts.push_back(Ctx.TheHeap.boxDouble(D));
  return (uint16_t)(Script->Consts.size() - 1);
}

uint16_t Parser::addAtom(std::string_view Name) {
  String *A = Ctx.Atoms.intern(Name);
  for (size_t I = 0; I < Script->Atoms.size(); ++I)
    if (Script->Atoms[I] == A)
      return (uint16_t)I;
  Script->Atoms.push_back(A);
  return (uint16_t)(Script->Atoms.size() - 1);
}

uint16_t Parser::allocIC() {
  Script->ICs.emplace_back();
  return (uint16_t)(Script->ICs.size() - 1);
}

uint16_t Parser::localSlot(std::string_view Name, bool Declare) {
  auto It = Locals.find(std::string(Name));
  if (It != Locals.end())
    return It->second;
  assert(Declare);
  uint16_t Slot = (uint16_t)Script->NumLocals++;
  Locals.emplace(std::string(Name), Slot);
  return Slot;
}

uint16_t Parser::globalSlot(std::string_view Name) {
  return (uint16_t)Ctx.Globals.slotFor(Ctx.Atoms.intern(Name));
}

// --- References -----------------------------------------------------------------

void Parser::loadRef(const Ref &R) {
  switch (R.Kind) {
  case RefKind::None:
    break; // value already on the stack
  case RefKind::Local:
    emitOp(Op::GetLocal, +1);
    emitU16(R.Slot);
    break;
  case RefKind::Global:
    emitOp(Op::GetGlobal, +1);
    emitU16(R.Slot);
    break;
  case RefKind::Prop:
    emitOp(Op::GetProp, 0); // obj -> value
    emitU16(R.Slot);
    emitU16(allocIC());
    break;
  case RefKind::Elem:
    emitOp(Op::GetElem, -1); // obj idx -> value
    break;
  }
}

void Parser::storeRef(const Ref &R) {
  switch (R.Kind) {
  case RefKind::None:
    errorAt(Prev, "invalid assignment target");
    break;
  case RefKind::Local:
    emitOp(Op::SetLocal, 0); // peeks
    emitU16(R.Slot);
    break;
  case RefKind::Global:
    emitOp(Op::SetGlobal, 0);
    emitU16(R.Slot);
    break;
  case RefKind::Prop:
    emitOp(Op::SetProp, -1); // obj value -> value
    emitU16(R.Slot);
    emitU16(allocIC());
    break;
  case RefKind::Elem:
    emitOp(Op::SetElem, -2); // obj idx value -> value
    break;
  }
}

void Parser::dupRefOperands(const Ref &R) {
  switch (R.Kind) {
  case RefKind::Prop:
    emitOp(Op::Dup, +1);
    break;
  case RefKind::Elem:
    emitOp(Op::Dup2, +2);
    break;
  default:
    break;
  }
}

// --- Expressions ------------------------------------------------------------------

int Parser::binaryPrecedence(Tok T) {
  switch (T) {
  case Tok::PipePipe:
    return PrecOr;
  case Tok::AmpAmp:
    return PrecAnd;
  case Tok::Pipe:
    return PrecBitOr;
  case Tok::Caret:
    return PrecBitXor;
  case Tok::Amp:
    return PrecBitAnd;
  case Tok::EqEq:
  case Tok::NotEq:
  case Tok::StrictEq:
  case Tok::StrictNe:
    return PrecEquality;
  case Tok::Lt:
  case Tok::Le:
  case Tok::Gt:
  case Tok::Ge:
    return PrecRelational;
  case Tok::Shl:
  case Tok::Shr:
  case Tok::Ushr:
    return PrecShift;
  case Tok::Plus:
  case Tok::Minus:
    return PrecAdditive;
  case Tok::Star:
  case Tok::Slash:
  case Tok::Percent:
    return PrecMultiplicative;
  case Tok::Question:
    return PrecTernary;
  default:
    return PrecNone;
  }
}

Op Parser::binaryOp(Tok T) {
  switch (T) {
  case Tok::Pipe:
    return Op::BitOr;
  case Tok::Caret:
    return Op::BitXor;
  case Tok::Amp:
    return Op::BitAnd;
  case Tok::EqEq:
    return Op::Eq;
  case Tok::NotEq:
    return Op::Ne;
  case Tok::StrictEq:
    return Op::StrictEq;
  case Tok::StrictNe:
    return Op::StrictNe;
  case Tok::Lt:
    return Op::Lt;
  case Tok::Le:
    return Op::Le;
  case Tok::Gt:
    return Op::Gt;
  case Tok::Ge:
    return Op::Ge;
  case Tok::Shl:
    return Op::Shl;
  case Tok::Shr:
    return Op::Shr;
  case Tok::Ushr:
    return Op::Ushr;
  case Tok::Plus:
    return Op::Add;
  case Tok::Minus:
    return Op::Sub;
  case Tok::Star:
    return Op::Mul;
  case Tok::Slash:
    return Op::Div;
  case Tok::Percent:
    return Op::Mod;
  default:
    assert(false && "not a binary operator");
    return Op::Nop;
  }
}

bool Parser::isAssignToken(Tok T) {
  switch (T) {
  case Tok::Assign:
  case Tok::PlusAssign:
  case Tok::MinusAssign:
  case Tok::StarAssign:
  case Tok::SlashAssign:
  case Tok::PercentAssign:
  case Tok::AmpAssign:
  case Tok::PipeAssign:
  case Tok::CaretAssign:
  case Tok::ShlAssign:
  case Tok::ShrAssign:
  case Tok::UshrAssign:
    return true;
  default:
    return false;
  }
}

Op Parser::compoundOp(Tok T) {
  switch (T) {
  case Tok::PlusAssign:
    return Op::Add;
  case Tok::MinusAssign:
    return Op::Sub;
  case Tok::StarAssign:
    return Op::Mul;
  case Tok::SlashAssign:
    return Op::Div;
  case Tok::PercentAssign:
    return Op::Mod;
  case Tok::AmpAssign:
    return Op::BitAnd;
  case Tok::PipeAssign:
    return Op::BitOr;
  case Tok::CaretAssign:
    return Op::BitXor;
  case Tok::ShlAssign:
    return Op::Shl;
  case Tok::ShrAssign:
    return Op::Shr;
  case Tok::UshrAssign:
    return Op::Ushr;
  default:
    assert(false && "not a compound assignment");
    return Op::Nop;
  }
}

void Parser::parsePrecedence(int MinPrec) {
  if (HadError)
    return;
  Ref R = parseUnaryRef();

  // Assignment: only permitted when this level accepts it and the left side
  // was a plain reference.
  if (MinPrec <= PrecAssignment && isAssignToken(Cur.Kind)) {
    Tok AssignTok = Cur.Kind;
    advance();
    if (AssignTok == Tok::Assign) {
      parsePrecedence(PrecAssignment); // right associative
      storeRef(R);
    } else {
      dupRefOperands(R);
      loadRef(R);
      parsePrecedence(PrecAssignment);
      emitOp(compoundOp(AssignTok), -1);
      storeRef(R);
    }
    return;
  }

  loadRef(R);

  for (;;) {
    int Prec = binaryPrecedence(Cur.Kind);
    if (Prec == PrecNone || Prec < MinPrec)
      return;
    Tok OpTok = Cur.Kind;
    advance();

    if (OpTok == Tok::Question) {
      // cond ? a : b
      uint32_t Else = emitJump(Op::JumpIfFalse, -1);
      parsePrecedence(PrecAssignment);
      uint32_t End = emitJump(Op::Jump, 0);
      adjustStack(-1); // the two arms merge to one value
      patchJump(Else, here());
      expect(Tok::Colon, "':'");
      parsePrecedence(PrecTernary);
      patchJump(End, here());
      continue;
    }
    if (OpTok == Tok::AmpAmp) {
      emitOp(Op::Dup, +1);
      uint32_t End = emitJump(Op::JumpIfFalse, -1);
      emitOp(Op::Pop, -1);
      parsePrecedence(PrecAnd + 1);
      patchJump(End, here());
      continue;
    }
    if (OpTok == Tok::PipePipe) {
      emitOp(Op::Dup, +1);
      uint32_t End = emitJump(Op::JumpIfTrue, -1);
      emitOp(Op::Pop, -1);
      parsePrecedence(PrecOr + 1);
      patchJump(End, here());
      continue;
    }

    parsePrecedence(Prec + 1);
    emitOp(binaryOp(OpTok), -1);
  }
}

Parser::Ref Parser::parseUnaryRef() {
  switch (Cur.Kind) {
  case Tok::Minus:
    advance();
    parsePrecedence(PrecUnary);
    emitOp(Op::Neg, 0);
    return {};
  case Tok::Plus:
    advance();
    // Unary plus: ToNumber. Our operands are already numbers in the subset;
    // compile as x - 0 to force a numeric context errorlessly.
    parsePrecedence(PrecUnary);
    return {};
  case Tok::Bang:
    advance();
    parsePrecedence(PrecUnary);
    emitOp(Op::LogicalNot, 0);
    return {};
  case Tok::Tilde:
    advance();
    parsePrecedence(PrecUnary);
    emitOp(Op::BitNot, 0);
    return {};
  case Tok::PlusPlus:
  case Tok::MinusMinus: {
    bool Inc = Cur.Kind == Tok::PlusPlus;
    advance();
    Ref R = parseUnaryRef();
    R = parsePostfixChain(R);
    if (R.Kind == RefKind::None) {
      errorAt(Prev, "invalid increment target");
      return {};
    }
    dupRefOperands(R);
    loadRef(R);
    emitOp(Op::PushConst, +1);
    emitU16(addConst(Value::makeInt(1)));
    emitOp(Inc ? Op::Add : Op::Sub, -1);
    storeRef(R);
    return {};
  }
  default: {
    Ref R;
    parsePrimaryInto(R);
    R = parsePostfixChain(R);
    // Postfix ++/--: compute the new value, store it, and recover the old
    // value arithmetically (new -/+ 1); ++/-- are always numeric.
    if (check(Tok::PlusPlus) || check(Tok::MinusMinus)) {
      bool Inc = check(Tok::PlusPlus);
      advance();
      if (R.Kind == RefKind::None) {
        errorAt(Prev, "invalid increment target");
        return {};
      }
      dupRefOperands(R);
      loadRef(R);
      emitOp(Op::PushConst, +1);
      emitU16(addConst(Value::makeInt(1)));
      emitOp(Inc ? Op::Add : Op::Sub, -1);
      storeRef(R);
      emitOp(Op::PushConst, +1);
      emitU16(addConst(Value::makeInt(1)));
      emitOp(Inc ? Op::Sub : Op::Add, -1);
      return {};
    }
    return R;
  }
  }
}

void Parser::parsePrimaryInto(Ref &R) {
  switch (Cur.Kind) {
  case Tok::Number: {
    uint16_t K = addNumberConst(Cur.NumValue);
    advance();
    emitOp(Op::PushConst, +1);
    emitU16(K);
    return;
  }
  case Tok::StringLit: {
    std::string Decoded = decodeStringLiteral(Cur.Text);
    advance();
    String *S = Ctx.Atoms.intern(Decoded); // interned: stable + rooted
    uint16_t K = addConst(Value::makeString(S));
    emitOp(Op::PushConst, +1);
    emitU16(K);
    return;
  }
  case Tok::KwTrue:
  case Tok::KwFalse: {
    bool B = Cur.Kind == Tok::KwTrue;
    advance();
    emitOp(Op::PushConst, +1);
    emitU16(addConst(Value::makeBoolean(B)));
    return;
  }
  case Tok::KwNull:
    advance();
    emitOp(Op::PushConst, +1);
    emitU16(addConst(Value::null()));
    return;
  case Tok::KwUndefined:
    advance();
    emitOp(Op::PushUndefined, +1);
    return;
  case Tok::Identifier: {
    std::string Name(Cur.Text);
    advance();
    if (InFunction && Locals.count(Name)) {
      R.Kind = RefKind::Local;
      R.Slot = Locals[Name];
    } else {
      R.Kind = RefKind::Global;
      R.Slot = globalSlot(Name);
    }
    return;
  }
  case Tok::LParen:
    advance();
    expression();
    expect(Tok::RParen, "')'");
    return;
  case Tok::LBracket: {
    advance();
    uint16_t N = 0;
    if (!check(Tok::RBracket)) {
      do {
        expression();
        ++N;
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBracket, "']'");
    emitOp(Op::NewArray, 1 - (int)N);
    emitU16(N);
    return;
  }
  case Tok::LBrace: {
    advance();
    emitOp(Op::NewObject, +1);
    if (!check(Tok::RBrace)) {
      do {
        if (!check(Tok::Identifier) && !check(Tok::StringLit)) {
          errorAt(Cur, "expected property name");
          return;
        }
        uint16_t A = check(Tok::StringLit)
                         ? addAtom(decodeStringLiteral(Cur.Text))
                         : addAtom(Cur.Text);
        advance();
        expect(Tok::Colon, "':'");
        expression();
        emitOp(Op::InitProp, -1);
        emitU16(A);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBrace, "'}'");
    return;
  }
  default:
    errorAt(Cur, "expected expression");
    return;
  }
}

void Parser::callArguments(uint8_t &ArgC) {
  ArgC = 0;
  if (!check(Tok::RParen)) {
    do {
      expression();
      ++ArgC;
    } while (accept(Tok::Comma));
  }
  expect(Tok::RParen, "')'");
}

Parser::Ref Parser::parsePostfixChain(Ref R) {
  for (;;) {
    if (HadError)
      return R;
    if (check(Tok::Dot)) {
      advance();
      if (!check(Tok::Identifier)) {
        errorAt(Cur, "expected property name after '.'");
        return R;
      }
      uint16_t A = addAtom(Cur.Text);
      advance();
      if (check(Tok::LParen)) {
        // Method call: receiver stays on the stack for CallProp.
        loadRef(R);
        advance();
        uint8_t ArgC;
        callArguments(ArgC);
        emitOp(Op::CallProp, -(int)ArgC); // recv argN -> result
        emitU16(A);
        emitU8(ArgC);
        R = Ref{};
      } else {
        loadRef(R);
        R.Kind = RefKind::Prop;
        R.Slot = A;
      }
      continue;
    }
    if (check(Tok::LBracket)) {
      loadRef(R);
      advance();
      expression();
      expect(Tok::RBracket, "']'");
      R = Ref{};
      R.Kind = RefKind::Elem;
      continue;
    }
    if (check(Tok::LParen)) {
      loadRef(R);
      advance();
      uint8_t ArgC;
      callArguments(ArgC);
      emitOp(Op::Call, -(int)ArgC); // callee argN -> result
      emitU8(ArgC);
      R = Ref{};
      continue;
    }
    return R;
  }
}

// --- Statements -----------------------------------------------------------------

void Parser::statement() {
  if (HadError)
    return;
  ++StmtDepth;
  switch (Cur.Kind) {
  case Tok::LBrace:
    advance();
    block();
    break;
  case Tok::KwVar:
    varStatement();
    break;
  case Tok::KwFunction:
    functionDeclaration();
    break;
  case Tok::KwIf:
    ifStatement();
    break;
  case Tok::KwWhile:
    whileStatement();
    break;
  case Tok::KwDo:
    doWhileStatement();
    break;
  case Tok::KwFor:
    forStatement();
    break;
  case Tok::KwBreak:
    breakStatement();
    break;
  case Tok::KwContinue:
    continueStatement();
    break;
  case Tok::KwReturn:
    returnStatement();
    break;
  case Tok::Semicolon:
    advance();
    break;
  default:
    expressionStatement();
    break;
  }
  --StmtDepth;
}

void Parser::block() {
  while (!check(Tok::RBrace) && !check(Tok::Eof) && !HadError)
    statement();
  expect(Tok::RBrace, "'}'");
}

void Parser::varStatement() {
  advance(); // var
  do {
    if (!check(Tok::Identifier)) {
      errorAt(Cur, "expected variable name");
      return;
    }
    std::string Name(Cur.Text);
    advance();
    Ref R;
    if (InFunction) {
      R.Kind = RefKind::Local;
      R.Slot = localSlot(Name, /*Declare=*/true);
    } else {
      R.Kind = RefKind::Global;
      R.Slot = globalSlot(Name);
    }
    if (accept(Tok::Assign)) {
      expression();
      storeRef(R);
      emitOp(Op::Pop, -1);
    }
  } while (accept(Tok::Comma));
  expect(Tok::Semicolon, "';'");
}

void Parser::functionDeclaration() {
  advance(); // function
  if (InFunction) {
    errorAt(Cur, "nested functions are not supported");
    return;
  }
  if (!check(Tok::Identifier)) {
    errorAt(Cur, "expected function name");
    return;
  }
  std::string Name(Cur.Text);
  advance();

  // Swap in a fresh compilation context for the function body.
  auto *Fn = new FunctionScript();
  Fn->Id = (uint32_t)Ctx.Scripts.size();
  Fn->Name = Name;
  Ctx.Scripts.emplace_back(Fn);

  FunctionScript *SavedScript = Script;
  auto SavedLocals = std::move(Locals);
  auto SavedLoops = std::move(LoopStack);
  int SavedDepth = StackDepth;
  Script = Fn;
  Locals.clear();
  LoopStack.clear();
  StackDepth = 0;
  InFunction = true;

  expect(Tok::LParen, "'('");
  if (!check(Tok::RParen)) {
    do {
      if (!check(Tok::Identifier)) {
        errorAt(Cur, "expected parameter name");
        break;
      }
      localSlot(Cur.Text, /*Declare=*/true);
      ++Fn->Arity;
      advance();
    } while (accept(Tok::Comma));
  }
  expect(Tok::RParen, "')'");
  expect(Tok::LBrace, "'{'");
  block();
  emitOp(Op::ReturnUndefined, 0);

  InFunction = false;
  Script = SavedScript;
  Locals = std::move(SavedLocals);
  LoopStack = std::move(SavedLoops);
  StackDepth = SavedDepth;

  // Bind the function object now (function declarations are hoisted).
  Object *FnObj = Object::createFunction(Ctx.TheHeap, Ctx.Shapes, Fn);
  uint16_t Slot = globalSlot(Name);
  Ctx.Globals.Values[Slot] = Value::makeObject(FnObj);
}

void Parser::ifStatement() {
  advance();
  expect(Tok::LParen, "'('");
  expression();
  expect(Tok::RParen, "')'");
  uint32_t Else = emitJump(Op::JumpIfFalse, -1);
  statement();
  if (accept(Tok::KwElse)) {
    uint32_t End = emitJump(Op::Jump, 0);
    patchJump(Else, here());
    statement();
    patchJump(End, here());
  } else {
    patchJump(Else, here());
  }
}

void Parser::whileStatement() {
  advance();
  uint32_t Header = here();
  uint32_t LoopIndex = (uint32_t)Script->Loops.size();
  Script->Loops.emplace_back();
  Script->Loops.back().HeaderPc = Header;
  emitOp(Op::LoopHeader, 0);
  emitU16((uint16_t)LoopIndex);

  expect(Tok::LParen, "'('");
  expression();
  expect(Tok::RParen, "')'");
  uint32_t Exit = emitJump(Op::JumpIfFalse, -1);

  LoopStack.push_back({Header, LoopIndex, {}, {}, true});
  statement();
  LoopCtx L = std::move(LoopStack.back());
  LoopStack.pop_back();

  emitOp(Op::Jump, 0);
  emitU32(Header);
  patchJump(Exit, here());
  for (uint32_t P : L.BreakPatches)
    patchJump(P, here());
  Script->Loops[LoopIndex].EndPc = here();
}

void Parser::doWhileStatement() {
  advance();
  uint32_t Header = here();
  uint32_t LoopIndex = (uint32_t)Script->Loops.size();
  Script->Loops.emplace_back();
  Script->Loops.back().HeaderPc = Header;
  emitOp(Op::LoopHeader, 0);
  emitU16((uint16_t)LoopIndex);

  LoopStack.push_back({Header, LoopIndex, {}, {}, false});
  statement();
  LoopCtx L = std::move(LoopStack.back());
  LoopStack.pop_back();

  for (uint32_t P : L.ContinuePatches)
    patchJump(P, here());
  expect(Tok::KwWhile, "'while'");
  expect(Tok::LParen, "'('");
  expression();
  expect(Tok::RParen, "')'");
  accept(Tok::Semicolon);
  emitOp(Op::JumpIfTrue, -1);
  emitU32(Header);
  for (uint32_t P : L.BreakPatches)
    patchJump(P, here());
  Script->Loops[LoopIndex].EndPc = here();
}

void Parser::forStatement() {
  advance();
  expect(Tok::LParen, "'('");

  // Init clause.
  if (check(Tok::KwVar)) {
    varStatement(); // consumes the ';'
  } else if (check(Tok::Semicolon)) {
    advance();
  } else {
    expression();
    emitOp(Op::Pop, -1);
    expect(Tok::Semicolon, "';'");
  }

  uint32_t Header = here();
  uint32_t LoopIndex = (uint32_t)Script->Loops.size();
  Script->Loops.emplace_back();
  Script->Loops.back().HeaderPc = Header;
  emitOp(Op::LoopHeader, 0);
  emitU16((uint16_t)LoopIndex);

  // Condition clause.
  uint32_t Exit = 0;
  bool HasCond = false;
  if (!check(Tok::Semicolon)) {
    expression();
    Exit = emitJump(Op::JumpIfFalse, -1);
    HasCond = true;
  }
  expect(Tok::Semicolon, "';'");

  // Increment clause: compiled after the body; remember its source span by
  // buffering the tokens? Simpler: compile it now into a scratch script and
  // splice. We instead use the classic jump shuffle:
  //   header: cond; jf exit; jump body; incr_label: incr; jump header;
  //   body: ...; jump incr_label
  uint32_t ToBody = 0;
  uint32_t IncrLabel = 0;
  bool HasIncr = !check(Tok::RParen);
  if (HasIncr) {
    ToBody = emitJump(Op::Jump, 0);
    IncrLabel = here();
    expression();
    emitOp(Op::Pop, -1);
    emitOp(Op::Jump, 0);
    emitU32(Header);
  }
  expect(Tok::RParen, "')'");
  if (HasIncr)
    patchJump(ToBody, here());

  LoopStack.push_back({HasIncr ? IncrLabel : Header, LoopIndex, {}, {},
                       /*ContinueTargetsHeader=*/true});
  statement();
  LoopCtx L = std::move(LoopStack.back());
  LoopStack.pop_back();

  emitOp(Op::Jump, 0);
  emitU32(HasIncr ? IncrLabel : Header);
  if (HasCond)
    patchJump(Exit, here());
  for (uint32_t P : L.BreakPatches)
    patchJump(P, here());
  Script->Loops[LoopIndex].EndPc = here();
}

void Parser::breakStatement() {
  advance();
  expect(Tok::Semicolon, "';'");
  if (LoopStack.empty()) {
    errorAt(Prev, "'break' outside of a loop");
    return;
  }
  LoopStack.back().BreakPatches.push_back(emitJump(Op::Jump, 0));
}

void Parser::continueStatement() {
  advance();
  expect(Tok::Semicolon, "';'");
  if (LoopStack.empty()) {
    errorAt(Prev, "'continue' outside of a loop");
    return;
  }
  LoopCtx &L = LoopStack.back();
  if (L.ContinueTargetsHeader) {
    emitOp(Op::Jump, 0);
    emitU32(L.HeaderPc);
  } else {
    L.ContinuePatches.push_back(emitJump(Op::Jump, 0));
  }
}

void Parser::returnStatement() {
  advance();
  if (!InFunction) {
    errorAt(Prev, "'return' outside of a function");
    return;
  }
  if (check(Tok::Semicolon)) {
    advance();
    emitOp(Op::ReturnUndefined, 0);
    return;
  }
  expression();
  expect(Tok::Semicolon, "';'");
  emitOp(Op::Return, -1);
}

void Parser::expressionStatement() {
  expression();
  expect(Tok::Semicolon, "';'");
  // Top-level expression statements feed the program's result value. Loop
  // bodies and nested blocks sit at depth >= 2, so hot code keeps the plain
  // Pop and traces never contain PopResult.
  if (!InFunction && StmtDepth == 1)
    emitOp(Op::PopResult, -1);
  else
    emitOp(Op::Pop, -1);
}

FunctionScript *Parser::parseProgram() {
  auto *Top = new FunctionScript();
  Top->Id = (uint32_t)Ctx.Scripts.size();
  Top->Name = "";
  Ctx.Scripts.emplace_back(Top);
  Script = Top;
  InFunction = false;
  StackDepth = 0;

  while (!check(Tok::Eof) && !HadError)
    statement();
  emitOp(Op::ReturnUndefined, 0);
  return HadError ? nullptr : Top;
}

FunctionScript *compileSource(VMContext &Ctx, std::string_view Source,
                              EngineError *ErrorOut) {
  Parser P(Ctx, Source);
  FunctionScript *S = P.parseProgram();
  if (!S && ErrorOut)
    *ErrorOut = P.error();
  return S;
}

FunctionScript *compileSource(VMContext &Ctx, std::string_view Source,
                              std::string *ErrorOut) {
  Parser P(Ctx, Source);
  FunctionScript *S = P.parseProgram();
  if (!S && ErrorOut)
    *ErrorOut = P.errorMessage();
  return S;
}

} // namespace tracejit
