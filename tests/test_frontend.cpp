//===- test_frontend.cpp - Lexer, parser, bytecode compiler -------------------===//

#include <gtest/gtest.h>

#include "api/engine.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"

using namespace tracejit;

TEST(Lexer, TokenKinds) {
  Lexer L("var x = 0x1F + 2.5e3; // comment\n'str' >>> >= === !== &&");
  EXPECT_EQ(L.next().Kind, Tok::KwVar);
  Token Id = L.next();
  EXPECT_EQ(Id.Kind, Tok::Identifier);
  EXPECT_EQ(Id.Text, "x");
  EXPECT_EQ(L.next().Kind, Tok::Assign);
  Token Hex = L.next();
  EXPECT_EQ(Hex.Kind, Tok::Number);
  EXPECT_EQ(Hex.NumValue, 31.0);
  EXPECT_EQ(L.next().Kind, Tok::Plus);
  Token Exp = L.next();
  EXPECT_EQ(Exp.NumValue, 2500.0);
  EXPECT_EQ(L.next().Kind, Tok::Semicolon);
  Token Str = L.next();
  EXPECT_EQ(Str.Kind, Tok::StringLit);
  EXPECT_EQ(Str.Text, "str");
  EXPECT_EQ(L.next().Kind, Tok::Ushr);
  EXPECT_EQ(L.next().Kind, Tok::Ge);
  EXPECT_EQ(L.next().Kind, Tok::StrictEq);
  EXPECT_EQ(L.next().Kind, Tok::StrictNe);
  EXPECT_EQ(L.next().Kind, Tok::AmpAmp);
  EXPECT_EQ(L.next().Kind, Tok::Eof);
}

TEST(Lexer, StringEscapes) {
  EXPECT_EQ(decodeStringLiteral("a\\nb\\t\\x41"), "a\nb\tA");
  EXPECT_EQ(decodeStringLiteral("\\'\\\""), "'\"");
}

TEST(Lexer, BlockComments) {
  Lexer L("1 /* multi\nline */ 2");
  EXPECT_EQ(L.next().NumValue, 1.0);
  Token T = L.next();
  EXPECT_EQ(T.NumValue, 2.0);
  EXPECT_EQ(T.Line, 2u) << "line counting continues inside comments";
}

namespace {
FunctionScript *compileOk(VMContext &Ctx, const char *Src) {
  std::string Err;
  FunctionScript *S = compileSource(Ctx, Src, &Err);
  EXPECT_NE(S, nullptr) << Err;
  return S;
}
} // namespace

TEST(Parser, LoopHeadersAreEmitted) {
  EngineOptions O;
  VMContext Ctx(O);
  FunctionScript *S =
      compileOk(Ctx, "var s = 0; for (var i = 0; i < 3; ++i) s += i;");
  ASSERT_EQ(S->Loops.size(), 1u);
  EXPECT_EQ(S->opAt(S->Loops[0].HeaderPc), Op::LoopHeader);
  EXPECT_GT(S->Loops[0].EndPc, S->Loops[0].HeaderPc);
}

TEST(Parser, NestedLoopExtentsNest) {
  EngineOptions O;
  VMContext Ctx(O);
  FunctionScript *S = compileOk(Ctx, "for (var i = 0; i < 3; ++i)"
                                     "  for (var j = 0; j < 3; ++j)"
                                     "    i;");
  ASSERT_EQ(S->Loops.size(), 2u);
  const LoopRecord &Outer = S->Loops[0];
  const LoopRecord &Inner = S->Loops[1];
  EXPECT_LT(Outer.HeaderPc, Inner.HeaderPc);
  EXPECT_LE(Inner.EndPc, Outer.EndPc);
}

TEST(Parser, BackwardJumpsTargetLoopHeaders) {
  // The §3.2 invariant: "a bytecode is a loop header iff it is the target
  // of a backward branch".
  EngineOptions O;
  VMContext Ctx(O);
  FunctionScript *S = compileOk(
      Ctx, "var i = 0; do { i = i + 1; } while (i < 3);"
           "while (i < 10) { ++i; if (i == 7) continue; }"
           "for (var k = 0; k < 5; ++k) { if (k == 2) continue; }");
  uint32_t Pc = 0;
  while (Pc < S->Code.size()) {
    Op Op_ = S->opAt(Pc);
    uint32_t Len = 1 + opInfo(Op_).OperandBytes;
    if (Op_ == Op::Jump || Op_ == Op::JumpIfTrue) {
      uint32_t Target = S->u32At(Pc + 1);
      if (Target < Pc && Op_ == Op::JumpIfTrue) {
        EXPECT_EQ(S->opAt(Target), Op::LoopHeader)
            << "backward conditional jump at " << Pc;
      }
    }
    Pc += Len;
  }
}

TEST(Parser, FunctionsGetOwnScripts) {
  EngineOptions O;
  VMContext Ctx(O);
  compileOk(Ctx, "function f(a, b) { return a + b; }"
                 "function g() { return f(1, 2); }");
  // Scripts: toplevel first, then f and g in declaration order.
  EXPECT_EQ(Ctx.Scripts.size(), 3u);
  EXPECT_EQ(Ctx.Scripts[0]->Name, "");
  EXPECT_EQ(Ctx.Scripts[1]->Name, "f");
  EXPECT_EQ(Ctx.Scripts[1]->Arity, 2u);
  EXPECT_EQ(Ctx.Scripts[1]->NumLocals, 2u);
  EXPECT_EQ(Ctx.Scripts[2]->Name, "g");
}

TEST(Parser, SyntaxErrors) {
  EngineOptions O;
  const char *Bad[] = {
      "var = 3;",
      "if (1 { }",
      "for (;;",
      "function () {}",
      "break;",
      "continue;",
      "return 1;",
      "var x = 1 +;",
      "function f() { function g() {} }", // nested functions unsupported
      "1 = 2;",
  };
  for (const char *Src : Bad) {
    VMContext Ctx(O);
    std::string Err;
    EXPECT_EQ(compileSource(Ctx, Src, &Err), nullptr) << Src;
    EXPECT_FALSE(Err.empty()) << Src;
  }
}

TEST(Parser, DisassemblerRoundTrips) {
  EngineOptions O;
  VMContext Ctx(O);
  FunctionScript *S = compileOk(Ctx, "var o = {x: 1};\n"
                                     "for (var i = 0; i < 3; ++i)"
                                     "  o.x = o.x + i;");
  std::string Dis = S->disassemble();
  EXPECT_NE(Dis.find("loopheader"), std::string::npos);
  EXPECT_NE(Dis.find("getprop"), std::string::npos);
  EXPECT_NE(Dis.find(".x"), std::string::npos);
  EXPECT_NE(Dis.find("jump"), std::string::npos);
}

TEST(Parser, OperatorPrecedence) {
  EngineOptions O;
  Engine E(O);
  std::string Out;
  E.setPrintHook([&](const std::string &S) { Out += S; });
  ASSERT_TRUE(E.eval("print(1 + 2 * 3 - 4 / 2);\n"
                     "print(1 << 2 + 1);\n"
                     "print(7 & 3 | 4 ^ 1);\n"
                     "print(1 < 2 == true);\n"
                     "print(-2 * -3);\n")
                  .ok());
  EXPECT_EQ(Out, "5\n8\n7\ntrue\n6\n");
}
