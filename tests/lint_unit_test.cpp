//===- tests/lint_unit_test.cpp - stm_lint analyzer unit tests ------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// White-box coverage of the lint pipeline layers: lexer token/comment
// recovery, structural function/region extraction, rule scanning, call
// graph propagation, and suppression handling. The end-to-end behavior
// over realistic sources lives in tests/lint_fixtures/ (lint_test).
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"
#include "lint/Lint.h"
#include "lint/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace gstm::lint;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LintLexer, TokensCommentsAndLines) {
  TokenStream TS = lex("int x = 1; // trailing\n/* block */ y += 2;\n");
  ASSERT_FALSE(TS.Tokens.empty());
  EXPECT_EQ(TS.Tokens.front().Text, "int");
  EXPECT_EQ(TS.Tokens.front().Line, 1u);
  EXPECT_EQ(TS.Tokens.back().K, Token::Kind::End);

  ASSERT_EQ(TS.Comments.size(), 2u);
  EXPECT_EQ(TS.Comments[0].Line, 1u);
  EXPECT_EQ(TS.Comments[0].Text, " trailing");
  EXPECT_EQ(TS.Comments[1].Line, 2u);

  auto PlusEq = std::find_if(TS.Tokens.begin(), TS.Tokens.end(),
                             [](const Token &T) { return T.Text == "+="; });
  ASSERT_NE(PlusEq, TS.Tokens.end());
  EXPECT_EQ(PlusEq->Line, 2u);
}

TEST(LintLexer, DirectivesAndStringsAreOpaque) {
  TokenStream TS = lex("#include <new>\n"
                       "const char *S = \"malloc( rand(\";\n"
                       "auto R = R\"(delete X.load())\";\n");
  for (const Token &T : TS.Tokens) {
    EXPECT_NE(T.Text, "include");
    EXPECT_NE(T.Text, "malloc");
    EXPECT_NE(T.Text, "delete");
  }
  size_t Strings = 0;
  for (const Token &T : TS.Tokens)
    Strings += T.K == Token::Kind::String;
  EXPECT_EQ(Strings, 2u);
}

//===----------------------------------------------------------------------===//
// Structural parser
//===----------------------------------------------------------------------===//

TEST(LintParser, FindsFunctionsMethodsAndTxnParams) {
  TokenStream TS = lex("int add(int A, int B) { return A + B; }\n"
                       "struct Widget {\n"
                       "  void poke(Tl2Txn &Tx) { Tx.load(V); }\n"
                       "};\n"
                       "void Widget::other() {}\n");
  ParsedFile PF = parse(TS);
  ASSERT_EQ(PF.Functions.size(), 3u);

  EXPECT_EQ(PF.Functions[0].Qualified, "add");
  EXPECT_FALSE(PF.Functions[0].IsMethod);
  EXPECT_FALSE(PF.Functions[0].HasTxnParam);

  EXPECT_EQ(PF.Functions[1].Qualified, "Widget::poke");
  EXPECT_TRUE(PF.Functions[1].IsMethod);
  EXPECT_TRUE(PF.Functions[1].HasTxnParam);
  EXPECT_EQ(PF.Functions[1].Handle, "Tx");

  EXPECT_EQ(PF.Functions[2].Qualified, "Widget::other");
  EXPECT_TRUE(PF.Functions[2].IsMethod);
}

TEST(LintParser, FindsTxnLambdas) {
  TokenStream TS = lex("void f(Tl2Txn &Txn) {\n"
                       "  Txn.run(0, [&](Tl2Txn &Tx) { Tx.store(X, 1); });\n"
                       "  auto L = [](int V) { return V; };\n"
                       "}\n");
  ParsedFile PF = parse(TS);
  ASSERT_EQ(PF.TxnLambdas.size(), 1u);
  EXPECT_EQ(PF.TxnLambdas[0].Handle, "Tx");
  EXPECT_EQ(PF.TxnLambdas[0].Line, 2u);
  EXPECT_EQ(PF.TxnLambdas[0].EnclosingFunction, 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end pipeline on synthetic sources
//===----------------------------------------------------------------------===//

LintResult lintOne(std::string Text) {
  return lintSources({{"t.cpp", std::move(Text)}});
}

TEST(LintPipeline, DriverBodiesAreNotRegions) {
  LintResult R = lintOne("void drive(Tl2Txn &Txn) {\n"
                         "  printf(\"pre\\n\");\n" // driver: allowed
                         "  Txn.run(0, [&](Tl2Txn &Tx) { Tx.load(X); });\n"
                         "}\n");
  EXPECT_TRUE(R.clean()) << toText(R);
  EXPECT_EQ(R.Stats.Regions, 1u); // only the lambda
}

TEST(LintPipeline, R5PropagatesThroughCallChain) {
  LintResult R = lintOne("int leaf() { return rand(); }\n"
                         "int mid() { return leaf(); }\n"
                         "void body(Tl2Txn &Tx) { mid(); }\n");
  ASSERT_EQ(R.Diags.size(), 1u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::UnsafeCallee);
  EXPECT_EQ(R.Diags[0].Line, 3u);
  EXPECT_NE(R.Diags[0].Message.find("'mid'"), std::string::npos);
  EXPECT_NE(R.Diags[0].Message.find("rand"), std::string::npos);
}

TEST(LintPipeline, SameClassCallsShadowForeignNames) {
  // Both classes define step(); only Bad::step is unsafe. Good::tick's
  // unqualified call must bind to Good::step, not Bad::step.
  LintResult R = lintOne("struct Bad { int step() { return rand(); } };\n"
                         "struct Good {\n"
                         "  int step() { return 7; }\n"
                         "  int tick() { return step(); }\n"
                         "};\n"
                         "void body(Tl2Txn &Tx, Good &G) { G.tick(); }\n");
  EXPECT_TRUE(R.clean()) << toText(R);
}

TEST(LintPipeline, HandlePassedCalleesAreSanctioned) {
  LintResult R = lintOne("void helper(Tl2Txn &Tx) { Tx.load(X); }\n"
                         "void body(Tl2Txn &Tx) { helper(Tx); }\n");
  EXPECT_TRUE(R.clean()) << toText(R);
  EXPECT_EQ(R.Stats.Regions, 2u);
}

TEST(LintPipeline, SuppressionNeedsRationale) {
  LintResult R = lintOne("void body(Tl2Txn &Tx) {\n"
                         "  // stm-lint: allow(R2) deliberate, test-only\n"
                         "  printf(\"x\\n\");\n"
                         "  // stm-lint: allow(R2)\n"
                         "  printf(\"y\\n\");\n"
                         "}\n");
  ASSERT_EQ(R.Diags.size(), 1u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::BadSuppression);
  EXPECT_EQ(R.Diags[0].Line, 4u);
  EXPECT_EQ(R.Stats.Suppressed, 2u);
}

TEST(LintPipeline, SuppressionRationaleMayWrap) {
  LintResult R = lintOne("void body(Tl2Txn &Tx) {\n"
                         "  // stm-lint: allow(R2) a rationale long\n"
                         "  // enough to wrap onto a second line\n"
                         "  printf(\"x\\n\");\n"
                         "}\n");
  EXPECT_TRUE(R.clean()) << toText(R);
  EXPECT_EQ(R.Stats.Suppressed, 1u);
}

TEST(LintPipeline, JsonReportShape) {
  LintResult R = lintOne("void body(Tl2Txn &Tx) { malloc(8); }\n");
  std::string J = toJson(R);
  EXPECT_NE(J.find("\"tool\":\"stm_lint\""), std::string::npos);
  EXPECT_NE(J.find("\"rule\":\"R2\""), std::string::npos);
  EXPECT_NE(J.find("\"line\":1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Engine rule profiles and the dataflow upgrade
//===----------------------------------------------------------------------===//

TEST(LintProfiles, HandleTypeSelectsProfile) {
  EXPECT_STREQ(profileForHandleType("Tl2Txn").Name, "tl2");
  EXPECT_STREQ(profileForHandleType("LibTxn").Name, "libtm");
  EXPECT_STREQ(profileForHandleType("OrecEagerTxn").Name, "orec-eager");
  EXPECT_STREQ(profileForHandleType("TlrwTxn").Name, "tlrw");
  EXPECT_STREQ(profileForHandleType("TwoPlTxn").Name, "2pl-undo");
  EXPECT_STREQ(profileForHandleType("").Name, "generic");
  // Template-parameter handle names mark engine plumbing: naked-access
  // and callee propagation off.
  const RuleProfile &P = profileForHandleType("TxnT");
  EXPECT_STREQ(P.Name, "engine-internal");
  EXPECT_FALSE(P.CheckNakedAccess);
  EXPECT_FALSE(P.CheckCallees);
  EXPECT_TRUE(profileForHandleType("TlrwTxn").UpgradeHazard);
  EXPECT_TRUE(profileForHandleType("TwoPlTxn").InPlaceUndo);
}

TEST(LintProfiles, AliasEscapeIsR4) {
  LintResult R = lintOne("Tl2Txn *Sink;\n"
                         "void body(Tl2Txn &Tx) {\n"
                         "  Tl2Txn &H = Tx;\n"
                         "  Sink = &H;\n"
                         "}\n");
  ASSERT_EQ(R.Diags.size(), 1u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::HandleEscape);
  EXPECT_EQ(R.Diags[0].Line, 4u);
}

TEST(LintProfiles, UpgradeHazardOnlyUnderTlrw) {
  const char *Body = "void body(%s &Tx) {\n"
                     "  auto V = Tx.load(&A);\n"
                     "  Tx.store(&A, V + 1);\n"
                     "}\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Body, "TlrwTxn");
  LintResult Tlrw = lintOne(Buf);
  ASSERT_EQ(Tlrw.Diags.size(), 1u) << toText(Tlrw);
  EXPECT_EQ(Tlrw.Diags[0].R, Rule::UpgradeHazard);
  EXPECT_EQ(Tlrw.Diags[0].Line, 3u);

  std::snprintf(Buf, sizeof(Buf), Body, "Tl2Txn");
  LintResult Tl2 = lintOne(Buf);
  EXPECT_TRUE(Tl2.clean()) << toText(Tl2);
}

TEST(LintProfiles, ThrowIsIrrevocableUnderInPlaceUndo) {
  LintResult Orec = lintOne("struct Boom {};\n"
                            "void body(OrecEagerTxn &Tx) { throw Boom{}; }\n");
  ASSERT_EQ(Orec.Diags.size(), 1u) << toText(Orec);
  EXPECT_EQ(Orec.Diags[0].R, Rule::Irrevocable);

  // Bare rethrow only exists inside a catch; redo-log engines are exempt
  // entirely.
  LintResult Rethrow =
      lintOne("void body(OrecEagerTxn &Tx) { throw; }\n");
  EXPECT_TRUE(Rethrow.clean()) << toText(Rethrow);
  LintResult Tl2 = lintOne("struct Boom {};\n"
                           "void body(Tl2Txn &Tx) { throw Boom{}; }\n");
  EXPECT_TRUE(Tl2.clean()) << toText(Tl2);
}

TEST(LintParser, TemplateParamHandleAndRequiresClause) {
  TokenStream TS =
      lex("template <typename TxnT> static void apply(TxnT &Tx) {\n"
          "  Tx.store(W, 1);\n"
          "}\n"
          "template <template <typename> class PolicyT, typename TxnT>\n"
          "  requires(sizeof(TxnT) > 0 && !std::is_const_v<TxnT>)\n"
          "void constrained(TxnT &Tx) { Tx.load(W); }\n");
  ParsedFile PF = parse(TS);
  ASSERT_EQ(PF.Functions.size(), 2u);
  EXPECT_TRUE(PF.Functions[0].HasTxnParam);
  EXPECT_EQ(PF.Functions[0].Handle, "Tx");
  EXPECT_EQ(PF.Functions[0].HandleType, "TxnT");
  EXPECT_TRUE(PF.Functions[1].HasTxnParam);
  EXPECT_EQ(PF.Functions[1].HandleType, "TxnT");
}

//===----------------------------------------------------------------------===//
// Memory-ordering discipline pass
//===----------------------------------------------------------------------===//

TEST(LintOrder, TornPublishNeedsDominatingReleaseFence) {
  LintResult Bad =
      lintOne("// stm-order: publish(Meta) requires release-fence-before\n"
              "std::atomic<int> Meta;\n"
              "void pub() { Meta.store(1, std::memory_order_relaxed); }\n");
  ASSERT_EQ(Bad.Diags.size(), 1u) << toText(Bad);
  EXPECT_EQ(Bad.Diags[0].R, Rule::TornPublish);

  LintResult Fenced =
      lintOne("// stm-order: publish(Meta) requires release-fence-before\n"
              "std::atomic<int> Meta;\n"
              "void pub() {\n"
              "  std::atomic_thread_fence(std::memory_order_release);\n"
              "  Meta.store(1, std::memory_order_relaxed);\n"
              "}\n");
  EXPECT_TRUE(Fenced.clean()) << toText(Fenced);
}

TEST(LintOrder, FenceInsideBraceScopeDoesNotDominateAfterIt) {
  LintResult R =
      lintOne("// stm-order: publish(Meta) requires release-fence-before\n"
              "std::atomic<int> Meta;\n"
              "void pub(bool Fast) {\n"
              "  if (Fast) {\n"
              "    std::atomic_thread_fence(std::memory_order_release);\n"
              "  }\n"
              "  Meta.store(1, std::memory_order_relaxed);\n"
              "}\n");
  ASSERT_EQ(R.Diags.size(), 1u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::TornPublish);
  EXPECT_EQ(R.Diags[0].Line, 7u);
}

TEST(LintOrder, PairContractChecksBothSides) {
  LintResult R =
      lintOne("// stm-order: pair(Flag) acquire-load release-store\n"
              "std::atomic<int> Flag;\n"
              "int broken() {\n"
              "  Flag.store(1, std::memory_order_relaxed);\n"
              "  return Flag.load(std::memory_order_relaxed);\n"
              "}\n"
              "int paired() {\n"
              "  Flag.store(1, std::memory_order_release);\n"
              "  return Flag.load(std::memory_order_acquire);\n"
              "}\n"
              "int rmw() { return Flag.fetch_add(1, std::memory_order_relaxed); }\n");
  ASSERT_EQ(R.Diags.size(), 2u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::AcquireRelease);
  EXPECT_EQ(R.Diags[0].Line, 4u);
  EXPECT_EQ(R.Diags[1].Line, 5u);
  EXPECT_GE(R.Stats.AtomicOps, 5u);
  EXPECT_EQ(R.Stats.OrderContracts, 1u);
}

TEST(LintOrder, FenceContractBindsAndDetectsDrift) {
  LintResult Ok = lintOne(
      "void validate();\n"
      "void commit() {\n"
      "  // stm-order: fence(seq_cst) before(validate) label(test path)\n"
      "  std::atomic_thread_fence(std::memory_order_seq_cst);\n"
      "  validate();\n"
      "}\n");
  EXPECT_TRUE(Ok.clean()) << toText(Ok);

  LintResult Missing = lintOne(
      "void validate();\n"
      "void commit() {\n"
      "  // stm-order: fence(seq_cst) before(validate) label(test path)\n"
      "  validate();\n"
      "}\n");
  ASSERT_EQ(Missing.Diags.size(), 1u) << toText(Missing);
  EXPECT_EQ(Missing.Diags[0].R, Rule::FenceContract);
  EXPECT_NE(Missing.Diags[0].Message.find("test path"), std::string::npos);

  LintResult Drift = lintOne(
      "void validate();\n"
      "void commit() {\n"
      "  // stm-order: fence(seq_cst) before(validate) label(test path)\n"
      "  std::atomic_thread_fence(std::memory_order_seq_cst);\n"
      "}\n");
  ASSERT_EQ(Drift.Diags.size(), 1u) << toText(Drift);
  EXPECT_EQ(Drift.Diags[0].R, Rule::FenceContract);
  EXPECT_NE(Drift.Diags[0].Message.find("binds no call"), std::string::npos);
}

TEST(LintOrder, ContractNamesMatchReceiverChains) {
  // The contract name may be any identifier in the postfix chain left of
  // the store, so accessor-returned atomics are covered.
  LintResult R =
      lintOne("// stm-order: publish(stripe) requires release-fence-before\n"
              "struct T { std::atomic<int> &stripe(int); };\n"
              "void pub(T &S) {\n"
              "  S.stripe(3).store(1, std::memory_order_relaxed);\n"
              "}\n");
  ASSERT_EQ(R.Diags.size(), 1u) << toText(R);
  EXPECT_EQ(R.Diags[0].R, Rule::TornPublish);
}

TEST(LintOrder, OrderFindingsFeedSuppressions) {
  LintResult R =
      lintOne("// stm-order: pair(Flag) acquire-load release-store\n"
              "std::atomic<int> Flag;\n"
              "int f() {\n"
              "  // stm-lint: allow(O2) read under an external lock\n"
              "  return Flag.load(std::memory_order_relaxed);\n"
              "}\n");
  EXPECT_TRUE(R.clean()) << toText(R);
  EXPECT_EQ(R.Stats.Suppressed, 1u);
}

//===----------------------------------------------------------------------===//
// SARIF and baseline rendering
//===----------------------------------------------------------------------===//

TEST(LintRender, SarifShape) {
  LintResult R = lintOne("void body(Tl2Txn &Tx) { malloc(8); }\n");
  std::string S = toSarif(R);
  EXPECT_NE(S.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(S.find("\"name\":\"stm_lint\""), std::string::npos);
  EXPECT_NE(S.find("\"ruleId\":\"R2\""), std::string::npos);
  EXPECT_NE(S.find("\"startLine\":1"), std::string::npos);
  EXPECT_NE(S.find("\"uri\":\"t.cpp\""), std::string::npos);
  // The driver advertises the full rule table, O-rules included.
  EXPECT_NE(S.find("\"id\":\"O3\""), std::string::npos);
  EXPECT_NE(S.find("\"id\":\"R6\""), std::string::npos);
}

TEST(LintRender, BaselineRoundTripAndStaleness) {
  LintResult R = lintOne("void body(Tl2Txn &Tx) { malloc(8); rand(); }\n");
  ASSERT_EQ(R.Diags.size(), 2u) << toText(R);

  Baseline B = parseBaseline(baselineText(R));
  ASSERT_EQ(B.Entries.size(), 2u);
  EXPECT_EQ(B.Entries[0].RuleId, "R2");
  EXPECT_EQ(B.Entries[0].File, "t.cpp");

  std::vector<BaselineEntry> Stale;
  applyBaseline(R, B, Stale);
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Stats.BaselineWaived, 2u);
  EXPECT_TRUE(Stale.empty());

  // A baseline entry whose finding was fixed must surface as stale, and
  // one entry may waive only one of two identical findings.
  LintResult R2 = lintOne("void body(Tl2Txn &Tx) { malloc(8); }\n");
  Baseline WithStale = parseBaseline(
      "# comment\nR3\tt.cpp\tgone finding\n" + baselineText(R2));
  std::vector<BaselineEntry> Stale2;
  applyBaseline(R2, WithStale, Stale2);
  EXPECT_TRUE(R2.clean());
  ASSERT_EQ(Stale2.size(), 1u);
  EXPECT_EQ(Stale2[0].RuleId, "R3");
}

#ifdef GSTM_LINT_SOURCE_DIR
//===----------------------------------------------------------------------===//
// Self-scan structural guarantees over the real tree
//===----------------------------------------------------------------------===//

TEST(LintSelfScan, EngineHeadersYieldRegions) {
  // The CRTP/template-template/requires-heavy engine headers must not
  // silently fall out of coverage: every policy's txn-handle members
  // parse into scannable regions.
  std::vector<SourceFile> Files;
  std::string Error;
  ASSERT_TRUE(
      collectSources(GSTM_LINT_SOURCE_DIR, {"src/engine"}, Files, Error))
      << Error;
  LintResult R = lintSources(Files);
  EXPECT_GE(R.Stats.Functions, 60u);
  EXPECT_GE(R.Stats.Regions, 12u)
      << "engine template members stopped parsing as regions";
  EXPECT_TRUE(R.clean()) << toText(R);
}

TEST(LintSelfScan, CommitPathContractsPresent) {
  // The store-buffering fence contract (commit 5343567) must stay pinned
  // to the single-fence commit tail TL2, orec-eager and LibTm share
  // (OrecEagerPolicy::publish), and the publish contract to its held
  // orecs.
  std::vector<SourceFile> Files;
  std::string Error;
  ASSERT_TRUE(collectSources(GSTM_LINT_SOURCE_DIR,
                             {"src/stm", "src/libtm", "src/engine"}, Files,
                             Error))
      << Error;
  LintResult R = lintSources(Files);
  EXPECT_TRUE(R.clean()) << toText(R);
  EXPECT_GE(R.Stats.OrderContracts, 6u);
  EXPECT_GE(R.Stats.Fences, 4u);
}
#endif // GSTM_LINT_SOURCE_DIR

TEST(LintPipeline, ExpectationsMatchBothWays) {
  ExpectOutcome Good = checkExpectations(
      {{"f.cpp", "void body(Tl2Txn &Tx) { malloc(8); } // expect-diag(R2)\n"}});
  EXPECT_TRUE(Good.ok());
  EXPECT_EQ(Good.Expected, 1u);
  EXPECT_EQ(Good.Matched, 1u);

  ExpectOutcome Missed = checkExpectations(
      {{"f.cpp", "void body(Tl2Txn &Tx) { Tx.load(X); } // expect-diag(R1)\n"}});
  ASSERT_EQ(Missed.Failures.size(), 1u);
  EXPECT_NE(Missed.Failures[0].find("missed expectation"), std::string::npos);

  ExpectOutcome Extra = checkExpectations(
      {{"f.cpp", "void body(Tl2Txn &Tx) { malloc(8); }\n"}});
  ASSERT_EQ(Extra.Failures.size(), 1u);
  EXPECT_NE(Extra.Failures[0].find("unexpected diagnostic"),
            std::string::npos);
}

} // namespace
