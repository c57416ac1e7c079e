#include <gtest/gtest.h>

#include <unordered_set>

#include "parser/lexer.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "term/store.h"

namespace xsb {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : store_(&symbols_), ops_(&symbols_) {}

  // Parses one term and renders it back canonically.
  std::string RoundTrip(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, &ops_, text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    if (!r.ok()) return "<error>";
    WriteOptions options;
    options.use_operators = false;
    options.hilog_sugar = false;
    return WriteTerm(store_, ops_, r.value(), options);
  }

  std::string Pretty(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, &ops_, text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    if (!r.ok()) return "<error>";
    return WriteTerm(store_, ops_, r.value());
  }

  SymbolTable symbols_;
  TermStore store_;
  OpTable ops_;
};

TEST_F(ParserTest, WriterNamesAnInternedToken) {
  // Table-space tokens never reach the heap, but a stray one must print as
  // itself, not be read as a struct's heap index.
  EXPECT_EQ(WriteTerm(store_, ops_, InternedCell(5)), "'$interned'(5)");
}

TEST_F(ParserTest, Atoms) {
  EXPECT_EQ(RoundTrip("foo"), "foo");
  EXPECT_EQ(RoundTrip("'hello world'"), "'hello world'");
  EXPECT_EQ(RoundTrip("[]"), "[]");
}

TEST_F(ParserTest, Integers) {
  EXPECT_EQ(RoundTrip("42"), "42");
  EXPECT_EQ(RoundTrip("-7"), "-7");
  EXPECT_EQ(RoundTrip("0"), "0");
}

TEST_F(ParserTest, SimpleStructs) {
  EXPECT_EQ(RoundTrip("f(a,b)"), "f(a,b)");
  EXPECT_EQ(RoundTrip("f( a , b )"), "f(a,b)");
  EXPECT_EQ(RoundTrip("parent('John','Mary')"), "parent('John','Mary')");
  EXPECT_EQ(RoundTrip("f(g(h(x)))"), "f(g(h(x)))");
}

TEST_F(ParserTest, VariablesShareWithinClause) {
  Result<Word> r = ParseTermString(&store_, &ops_, "f(X, Y, X)");
  ASSERT_TRUE(r.ok());
  Word t = store_.Deref(r.value());
  EXPECT_EQ(store_.Deref(store_.Arg(t, 0)), store_.Deref(store_.Arg(t, 2)));
  EXPECT_NE(store_.Deref(store_.Arg(t, 0)), store_.Deref(store_.Arg(t, 1)));
}

TEST_F(ParserTest, AnonymousVariablesAreDistinct) {
  Result<Word> r = ParseTermString(&store_, &ops_, "f(_, _)");
  ASSERT_TRUE(r.ok());
  Word t = store_.Deref(r.value());
  EXPECT_NE(store_.Deref(store_.Arg(t, 0)), store_.Deref(store_.Arg(t, 1)));
}

TEST_F(ParserTest, Lists) {
  EXPECT_EQ(RoundTrip("[1,2,3]"), "[1,2,3]");
  EXPECT_EQ(RoundTrip("[a|T]"), "[a|_G0]");
  EXPECT_EQ(RoundTrip("[]"), "[]");
  EXPECT_EQ(RoundTrip("[[1],[2,3]]"), "[[1],[2,3]]");
}

TEST_F(ParserTest, OperatorPrecedence) {
  EXPECT_EQ(RoundTrip("1+2*3"), "+(1,*(2,3))");
  EXPECT_EQ(RoundTrip("(1+2)*3"), "*(+(1,2),3)");
  EXPECT_EQ(RoundTrip("1+2+3"), "+(+(1,2),3)");      // yfx
  EXPECT_EQ(RoundTrip("a = b"), "=(a,b)");
  EXPECT_EQ(RoundTrip("X is Y+1"), "is(_G0,+(_G1,1))");
}

TEST_F(ParserTest, ClauseSyntax) {
  EXPECT_EQ(RoundTrip("p :- q, r"), ":-(p,','(q,r))");
  EXPECT_EQ(RoundTrip("p(X) :- q(X), r(X)"),
            ":-(p(_G0),','(q(_G0),r(_G0)))");
  EXPECT_EQ(RoundTrip("a ; b ; c"), ";(a,;(b,c))");  // xfy
  EXPECT_EQ(RoundTrip("(a -> b ; c)"), ";(->(a,b),c)");
}

TEST_F(ParserTest, NegationOperators) {
  EXPECT_EQ(RoundTrip("\\+ p(X)"), "\\+(p(_G0))");
  EXPECT_EQ(RoundTrip("tnot win(X)"), "tnot(win(_G0))");
  EXPECT_EQ(RoundTrip("e_tnot win(X)"), "e_tnot(win(_G0))");
}

TEST_F(ParserTest, HiLogVariableApplication) {
  // X(bob, Y) => apply(X, bob, Y)
  EXPECT_EQ(RoundTrip("X(bob, Y)"), "apply(_G0,bob,_G1)");
}

TEST_F(ParserTest, HiLogCompoundApplication) {
  // path(G)(X, Y) => apply(path(G), X, Y)
  EXPECT_EQ(RoundTrip("path(G)(X, Y)"), "apply(path(_G0),_G1,_G2)");
  // r(X)(parent(X,'Mary')) from the paper.
  EXPECT_EQ(RoundTrip("r(X)(parent(X,'Mary'))"),
            "apply(r(_G0),parent(_G0,'Mary'))");
}

TEST_F(ParserTest, HiLogIntegerApplication) {
  // 7(E) => apply(7, E)
  EXPECT_EQ(RoundTrip("7(E)"), "apply(7,_G0)");
}

TEST_F(ParserTest, HiLogDeclaredAtom) {
  std::unordered_set<AtomId> hilog{symbols_.InternAtom("h")};
  std::string text = "h(a) .";
  Reader reader(&store_, &ops_, text, &hilog);
  Result<Word> r = reader.ReadClause();
  ASSERT_TRUE(r.ok());
  WriteOptions options;
  options.use_operators = false;
  options.hilog_sugar = false;
  EXPECT_EQ(WriteTerm(store_, ops_, r.value(), options), "apply(h,a)");
}

TEST_F(ParserTest, HiLogSugarPrintsApplicationsBack) {
  EXPECT_EQ(Pretty("X(bob, Y)"), "_G0(bob,_G1)");
  EXPECT_EQ(Pretty("path(G)(X, Y)"), "path(_G0)(_G1,_G2)");
}

TEST_F(ParserTest, ParenthesizedTermIsNotApplication) {
  // `foo (a)` with layout: foo applied to nothing; becomes an error since
  // an atom followed by a parenthesized term is not valid Prolog syntax.
  Result<Word> r = ParseTermString(&store_, &ops_, "f (a)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ParserTest, CommentsAreSkipped) {
  EXPECT_EQ(RoundTrip("f(a) % comment\n"), "f(a)");
  EXPECT_EQ(RoundTrip("f(/* inline */ a)"), "f(a)");
}

TEST_F(ParserTest, MultipleClauses) {
  std::string text = "edge(1,2). edge(2,3).\npath(X,Y) :- edge(X,Y).\n";
  Reader reader(&store_, &ops_, text);
  int count = 0;
  while (!reader.AtEof()) {
    Result<Word> r = reader.ReadClause();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST_F(ParserTest, VarNamesReported) {
  std::string text = "p(Xvar, Yvar, _, Xvar) .";
  Reader reader(&store_, &ops_, text);
  Result<Word> r = reader.ReadClause();
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(reader.var_names().size(), 2u);
  EXPECT_EQ(reader.var_names()[0].first, "Xvar");
  EXPECT_EQ(reader.var_names()[1].first, "Yvar");
}

TEST_F(ParserTest, Directives) {
  EXPECT_EQ(RoundTrip(":- table win/1"), ":-(table(/(win,1)))");
  EXPECT_EQ(RoundTrip(":- hilog h"), ":-(hilog(h))");
  EXPECT_EQ(RoundTrip(":- index(p/5, [1,2,3+5])"),
            ":-(index(/(p,5),[1,2,+(3,5)]))");
  EXPECT_EQ(RoundTrip(":- table_all"), ":-(table_all)");
}

TEST_F(ParserTest, SyntaxErrorsReportLine) {
  Result<Word> r = ParseTermString(&store_, &ops_, "f(a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kParse);
}

TEST_F(ParserTest, StringsBecomeCodeLists) {
  EXPECT_EQ(RoundTrip("\"ab\""), "[97,98]");
}

TEST_F(ParserTest, QuotedAtomsWithEscapes) {
  EXPECT_EQ(RoundTrip("'it''s'"), "'it\\'s'");
  EXPECT_EQ(RoundTrip("'a\\nb'"), "'a\nb'");
}

TEST_F(ParserTest, CurlyBraces) {
  EXPECT_EQ(RoundTrip("{a,b}"), "{}(','(a,b))");
  EXPECT_EQ(RoundTrip("{}"), "{}");
}

// --- Source spans (consumed by the analyzer's diagnostics) -------------------

TEST(LexerSpanTest, TokensAfterLineCommentKeepColumns) {
  Lexer lexer("% leading comment\n  foo(X)");
  Token foo = lexer.Next();
  EXPECT_EQ(foo.kind, TokenKind::kAtom);
  EXPECT_EQ(foo.line, 2);
  EXPECT_EQ(foo.column, 3);
  Token paren = lexer.Next();
  EXPECT_EQ(paren.kind, TokenKind::kFuncLParen);
  EXPECT_EQ(paren.column, 6);
  Token var = lexer.Next();
  EXPECT_EQ(var.kind, TokenKind::kVar);
  EXPECT_EQ(var.line, 2);
  EXPECT_EQ(var.column, 7);
}

TEST(LexerSpanTest, TrailingLineCommentDoesNotSkewNextLine) {
  Lexer lexer("a. % comment after a clause\nbcd.");
  EXPECT_EQ(lexer.Next().text, "a");
  EXPECT_EQ(lexer.Next().kind, TokenKind::kEnd);
  Token b = lexer.Next();
  EXPECT_EQ(b.text, "bcd");
  EXPECT_EQ(b.line, 2);
  EXPECT_EQ(b.column, 1);
}

TEST(LexerSpanTest, BlockCommentsTrackLinesAndColumns) {
  Lexer lexer("/* one\n   two */ x /* inline */ Y");
  Token x = lexer.Next();
  EXPECT_EQ(x.text, "x");
  EXPECT_EQ(x.line, 2);
  EXPECT_EQ(x.column, 11);
  Token y = lexer.Next();
  EXPECT_EQ(y.kind, TokenKind::kVar);
  EXPECT_EQ(y.line, 2);
  EXPECT_EQ(y.column, 26);
}

TEST_F(ParserTest, ReaderReportsClauseAndVariableSpans) {
  Reader reader(&store_, &ops_,
                "% header\nfirst(1).\n  second(X, Y) :- q(X, X).\n");
  ASSERT_TRUE(reader.ReadClause().ok());
  EXPECT_EQ(reader.clause_line(), 2);
  EXPECT_EQ(reader.clause_column(), 1);

  ASSERT_TRUE(reader.ReadClause().ok());
  EXPECT_EQ(reader.clause_line(), 3);
  EXPECT_EQ(reader.clause_column(), 3);
  const std::vector<Reader::VarInfo>& vars = reader.var_infos();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0].name, "X");
  EXPECT_EQ(vars[0].occurrences, 3);
  EXPECT_EQ(vars[0].line, 3);
  EXPECT_EQ(vars[0].column, 10);
  EXPECT_EQ(vars[1].name, "Y");
  EXPECT_EQ(vars[1].occurrences, 1);
  EXPECT_EQ(vars[1].column, 13);
}

}  // namespace
}  // namespace xsb
