// Lexer, parser, compiler, and scalar-interpreter tests for wscript.
#include <gtest/gtest.h>

#include "src/lang/builtins.h"
#include "src/lang/compiler.h"
#include "src/lang/interpreter.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"

namespace orochi {
namespace {

// Runs a script with the given params; state ops are served from a trivial in-test map so
// language tests can exercise reg/kv builtins without a server.
std::string RunWs(const std::string& src, RequestParams params = {},
                bool* trapped = nullptr) {
  Result<Program> prog = CompileSource(src, "/t");
  EXPECT_TRUE(prog.ok()) << prog.error();
  if (!prog.ok()) {
    return "<compile error: " + prog.error() + ">";
  }
  Interpreter interp(&prog.value(), &params);
  std::map<std::string, Value> store;
  int64_t clock = 100;
  while (true) {
    StepResult step = interp.Run();
    switch (step.kind) {
      case StepResult::Kind::kFinished:
        if (trapped != nullptr) {
          *trapped = false;
        }
        return interp.output();
      case StepResult::Kind::kError:
        if (trapped != nullptr) {
          *trapped = true;
          return step.error;
        }
        ADD_FAILURE() << "trap: " << step.error;
        return "<trap: " + step.error + ">";
      case StepResult::Kind::kStateOp: {
        const StateOpRequest& op = step.op;
        if (op.type == StateOpType::kRegisterRead) {
          auto it = store.find("r:" + op.target);
          interp.ProvideValue(it == store.end() ? Value::Null() : it->second);
        } else if (op.type == StateOpType::kRegisterWrite) {
          store["r:" + op.target] = op.value;
          interp.ProvideValue(Value::Null());
        } else if (op.type == StateOpType::kKvGet) {
          auto it = store.find("k:" + op.key);
          interp.ProvideValue(it == store.end() ? Value::Null() : it->second);
        } else if (op.type == StateOpType::kKvSet) {
          store["k:" + op.key] = op.value;
          interp.ProvideValue(Value::Null());
        } else {
          interp.ProvideValue(Value::Null());
        }
        break;
      }
      case StepResult::Kind::kNondet:
        interp.ProvideValue(Value::Int(clock++));
        break;
    }
  }
}

// --- Lexer ---

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  Result<std::vector<Token>> toks = Tokenize("$x = 1 + 2.5 . \"s\"; // comment");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks.value().size(), 8u);
  EXPECT_EQ(toks.value()[0].kind, TokenKind::kVariable);
  EXPECT_EQ(toks.value()[0].text, "x");
  EXPECT_EQ(toks.value()[2].int_val, 1);
  EXPECT_DOUBLE_EQ(toks.value()[4].float_val, 2.5);
  EXPECT_EQ(toks.value()[6].text, "s");
}

TEST(Lexer, StringEscapes) {
  Result<std::vector<Token>> toks = Tokenize(R"("a\nb\t\"q\"" 'raw\n')");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].text, "a\nb\t\"q\"");
  EXPECT_EQ(toks.value()[1].text, "raw\\n");  // Single quotes keep backslash-n.
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(Lexer, RejectsLoneAmp) { EXPECT_FALSE(Tokenize("$a & $b").ok()); }

TEST(Lexer, BlockCommentsAndHash) {
  Result<std::vector<Token>> toks = Tokenize("# line\n/* block\nmulti */ $x");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].kind, TokenKind::kVariable);
}

// --- Parser error cases ---

class ParserRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRejects, Rejects) { EXPECT_FALSE(ParseScript(GetParam()).ok()); }

INSTANTIATE_TEST_SUITE_P(BadPrograms, ParserRejects,
                         ::testing::Values("$x = ;", "if $x {}", "while (1 {}", "foreach ($a) {}",
                                           "function () {}", "echo ;", "$x = 1", "break",
                                           "$a[1 = 2;", "$x = foo(;", "return 1;;;else;",
                                           "function f($a { }", "1 + ;"));

// --- Expression evaluation ---

struct ExprCase {
  const char* expr;
  const char* expected;
};

class ExprEval : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ExprEval, Evaluates) {
  const ExprCase& c = GetParam();
  EXPECT_EQ(RunWs(std::string("echo ") + c.expr + ";"), c.expected) << c.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, ExprEval,
    ::testing::Values(ExprCase{"1 + 2", "3"}, ExprCase{"7 - 10", "-3"},
                      ExprCase{"6 * 7", "42"}, ExprCase{"7 / 2", "3.5"},
                      ExprCase{"8 / 2", "4"}, ExprCase{"7 % 3", "1"},
                      ExprCase{"-5 + 2", "-3"}, ExprCase{"2 * 3 + 4", "10"},
                      ExprCase{"2 + 3 * 4", "14"}, ExprCase{"(2 + 3) * 4", "20"},
                      ExprCase{"1.5 + 1", "2.5"}, ExprCase{"\"3\" + 4", "7"},
                      ExprCase{"\"2.5\" * 2", "5"}, ExprCase{"true + true", "2"},
                      ExprCase{"null + 5", "5"}));

INSTANTIATE_TEST_SUITE_P(
    StringsAndComparisons, ExprEval,
    ::testing::Values(ExprCase{"\"a\" . \"b\"", "ab"}, ExprCase{"1 . 2", "12"},
                      ExprCase{"\"x\" . 1.5", "x1.5"}, ExprCase{"1 == 1.0 ? \"y\" : \"n\"", "y"},
                      ExprCase{"\"1\" == 1 ? \"y\" : \"n\"", "y"},
                      ExprCase{"\"a\" == \"a\" ? \"y\" : \"n\"", "y"},
                      ExprCase{"\"a\" == \"b\" ? \"y\" : \"n\"", "n"},
                      ExprCase{"3 < 4 ? \"y\" : \"n\"", "y"},
                      ExprCase{"\"10\" > \"9\" ? \"y\" : \"n\"", "y"},  // Numeric strings.
                      ExprCase{"\"abc\" < \"abd\" ? \"y\" : \"n\"", "y"},
                      ExprCase{"1 != 2 ? \"y\" : \"n\"", "y"},
                      ExprCase{"!0 ? \"y\" : \"n\"", "y"},
                      ExprCase{"true && false ? \"y\" : \"n\"", "n"},
                      ExprCase{"false || true ? \"y\" : \"n\"", "y"}));

INSTANTIATE_TEST_SUITE_P(
    Builtins, ExprEval,
    ::testing::Values(ExprCase{"strlen(\"hello\")", "5"}, ExprCase{"substr(\"hello\", 1, 3)", "ell"},
                      ExprCase{"substr(\"hello\", -2)", "lo"},
                      ExprCase{"strpos(\"hello\", \"ll\")", "2"},
                      ExprCase{"strpos(\"hello\", \"z\")", "-1"},
                      ExprCase{"str_replace(\"l\", \"L\", \"hello\")", "heLLo"},
                      ExprCase{"strtoupper(\"aBc\")", "ABC"},
                      ExprCase{"trim(\"  x  \")", "x"},
                      ExprCase{"str_repeat(\"ab\", 3)", "ababab"},
                      ExprCase{"htmlspecialchars(\"<a href=\\\"x\\\">&\")",
                               "&lt;a href=&quot;x&quot;&gt;&amp;"},
                      ExprCase{"implode(\",\", array(1, 2, 3))", "1,2,3"},
                      ExprCase{"count(explode(\"-\", \"a-b-c\"))", "3"},
                      ExprCase{"max(3, 9, 2)", "9"}, ExprCase{"min(array(4, 1, 7))", "1"},
                      ExprCase{"abs(-5)", "5"}, ExprCase{"pow(2, 10)", "1024"},
                      ExprCase{"intdiv(7, 2)", "3"}, ExprCase{"intval(\"42abc\")", "42"},
                      ExprCase{"number_format(1234567.891, 2)", "1,234,567.89"},
                      ExprCase{"sql_escape(\"it's\")", "it''s"},
                      ExprCase{"implode(\";\", sort(array(3, 1, 2)))", "1;2;3"},
                      ExprCase{"in_array(2, array(1, 2)) ? \"y\" : \"n\"", "y"},
                      ExprCase{"implode(\",\", array_keys(array(\"a\" => 1, \"b\" => 2)))",
                               "a,b"},
                      ExprCase{"implode(\",\", array_reverse(array(1, 2, 3)))", "3,2,1"},
                      ExprCase{"implode(\",\", array_slice(array(1, 2, 3, 4), 1, 2))", "2,3"},
                      ExprCase{"implode(\",\", range(1, 4))", "1,2,3,4"},
                      ExprCase{"implode(\",\", array_merge(array(1), array(2, 3)))", "1,2,3"}));

// Edge cases of the string builtins that read their argument in place. Brackets make an
// empty result visible.
INSTANTIATE_TEST_SUITE_P(
    StringBuiltinEdges, ExprEval,
    ::testing::Values(
        ExprCase{"\"[\" . htmlspecialchars(\"\") . \"]\"", "[]"},
        ExprCase{"htmlspecialchars(\"plain text\")", "plain text"},
        ExprCase{"htmlspecialchars(\"&<>\\\"\")", "&amp;&lt;&gt;&quot;"},
        ExprCase{"htmlspecialchars(\"a&&b<\")", "a&amp;&amp;b&lt;"},
        ExprCase{"htmlspecialchars(42)", "42"}, ExprCase{"htmlspecialchars(1.5)", "1.5"},
        ExprCase{"\"[\" . htmlspecialchars(null) . \"]\"", "[]"},
        ExprCase{"htmlspecialchars(array(1, \"<\"))", "Array(0=&gt;1,1=&gt;&lt;)"},
        ExprCase{"\"[\" . str_replace(\"\", \"x\", \"abc\") . \"]\"", "[abc]"},
        ExprCase{"str_replace(\"z\", \"x\", \"abc\")", "abc"},
        ExprCase{"str_replace(\"ab\", \"X\", \"ababab\")", "XXX"},
        ExprCase{"str_replace(\"aa\", \"b\", \"aaaaa\")", "bba"},
        ExprCase{"str_replace(\"a\", \"a\", \"banana\")", "banana"},
        ExprCase{"str_replace(1, 2, 1213)", "2223"},
        ExprCase{"\"[\" . str_replace(\"a\", \"b\", \"\") . \"]\"", "[]"},
        ExprCase{"substr(\"hello\", 0)", "hello"}, ExprCase{"substr(\"hello\", -5)", "hello"},
        ExprCase{"substr(\"hello\", -9, 9)", "hello"},
        ExprCase{"substr(\"hello\", -3, -1)", "ll"}, ExprCase{"substr(\"hello\", 1, -1)", "ell"},
        ExprCase{"\"[\" . substr(\"hello\", 2, -5) . \"]\"", "[]"},
        ExprCase{"\"[\" . substr(\"hello\", 5) . \"]\"", "[]"},
        ExprCase{"substr(12345, 1, 2)", "23"},
        ExprCase{"strtolower(\"MiXeD 9\")", "mixed 9"}, ExprCase{"strtolower(\"low\")", "low"},
        ExprCase{"strtoupper(\"up 1.5\")", "UP 1.5"}, ExprCase{"strtoupper(2.5)", "2.5"},
        ExprCase{"\"[\" . strtoupper(null) . \"]\"", "[]"},
        ExprCase{"strtoupper(array(\"a\"))", "ARRAY(0=>A)"},
        ExprCase{"\"[\" . trim(\" \\t \") . \"]\"", "[]"},
        ExprCase{"\"[\" . trim(\"x y\") . \"]\"", "[x y]"},
        ExprCase{"sql_escape(\"''\")", "''''"}, ExprCase{"sql_escape(\"none\")", "none"},
        ExprCase{"strlen(12345)", "5"}, ExprCase{"strpos(\"a1b\", 1)", "1"}));

Result<Value> CallBuiltin(const char* name, std::vector<Value> args) {
  int id = BuiltinIdByName(name);
  EXPECT_GE(id, 0) << name;
  return BuiltinById(id).fn(args);
}

TEST(StringBuiltins, UnchangedResultSharesItsArgumentsStorage) {
  const Value text = Value::Str("plain text here");
  const Value lower = Value::Str("lower");
  const Value upper = Value::Str("UPPER");
  struct Case {
    const char* name;
    std::vector<Value> args;
    const Value* shared;  // The argument whose storage the result must share.
  };
  const Case cases[] = {
      {"htmlspecialchars", {text}, &text},
      {"str_replace", {Value::Str("zz"), Value::Str("x"), text}, &text},
      {"str_replace", {Value::Str(""), Value::Str("x"), text}, &text},
      {"str_replace", {Value::Str("e"), Value::Str("e"), text}, &text},
      {"substr", {text, Value::Int(0)}, &text},
      {"substr", {text, Value::Int(-100), Value::Int(100)}, &text},
      {"strtolower", {lower}, &lower},
      {"strtoupper", {upper}, &upper},
      {"trim", {text}, &text},
      {"sql_escape", {text}, &text},
  };
  for (const Case& c : cases) {
    Result<Value> r = CallBuiltin(c.name, c.args);
    ASSERT_TRUE(r.ok()) << c.name;
    ASSERT_TRUE(r.value().is_string()) << c.name;
    EXPECT_EQ(&r.value().as_string(), &c.shared->as_string()) << c.name;
  }
}

TEST(StringBuiltins, ChangedOrRenderedResultIsAFreshString) {
  const Value text = Value::Str("a<b");
  struct Case {
    const char* name;
    std::vector<Value> args;
    const char* expected;
  };
  const Case cases[] = {
      {"htmlspecialchars", {text}, "a&lt;b"},
      {"str_replace", {Value::Str("<"), Value::Str("-"), text}, "a-b"},
      {"substr", {text, Value::Int(1)}, "<b"},
      {"strtoupper", {text}, "A<B"},
      {"htmlspecialchars", {Value::Int(7)}, "7"},
      {"strtolower", {Value::Float(2.5)}, "2.5"},
      {"trim", {Value::Null()}, ""},
  };
  for (const Case& c : cases) {
    Result<Value> r = CallBuiltin(c.name, c.args);
    ASSERT_TRUE(r.ok()) << c.name;
    ASSERT_TRUE(r.value().is_string()) << c.name;
    EXPECT_EQ(r.value().as_string(), c.expected) << c.name;
    EXPECT_NE(&r.value().as_string(), &text.as_string()) << c.name;
  }
  EXPECT_EQ(text.as_string(), "a<b");  // Arguments are never written.
}

// --- Statements and control flow ---

TEST(Interp, IfElseChain) {
  const char* src = R"(
$x = intval(input("x"));
if ($x > 10) { echo "big"; }
elseif ($x > 5) { echo "mid"; }
else { echo "small"; }
)";
  EXPECT_EQ(RunWs(src, {{"x", "20"}}), "big");
  EXPECT_EQ(RunWs(src, {{"x", "7"}}), "mid");
  EXPECT_EQ(RunWs(src, {{"x", "1"}}), "small");
}

TEST(Interp, WhileWithBreakContinue) {
  const char* src = R"(
$i = 0;
$out = "";
while (true) {
  $i++;
  if ($i > 8) { break; }
  if ($i % 2 == 0) { continue; }
  $out = $out . $i;
}
echo $out;
)";
  EXPECT_EQ(RunWs(src), "1357");
}

TEST(Interp, ForLoopWithContinue) {
  const char* src = R"(
$s = 0;
for ($i = 0; $i < 10; $i++) {
  if ($i == 5) { continue; }
  $s += $i;
}
echo $s;
)";
  EXPECT_EQ(RunWs(src), "40");
}

TEST(Interp, ForeachKeyValue) {
  const char* src = R"(
$a = array("x" => 1, "y" => 2, 9 => "nine");
foreach ($a as $k => $v) { echo $k . "=" . $v . ";"; }
)";
  EXPECT_EQ(RunWs(src), "x=1;y=2;9=nine;");
}

TEST(Interp, ForeachBreakInsideNestedLoops) {
  const char* src = R"(
foreach (array(1, 2, 3) as $i) {
  foreach (array("a", "b") as $c) {
    if ($c == "b") { break; }
    echo $i . $c;
  }
}
)";
  EXPECT_EQ(RunWs(src), "1a2a3a");
}

TEST(Interp, ForeachIteratesSnapshot) {
  // Mutating the array inside the loop must not affect the ongoing iteration.
  const char* src = R"(
$a = array(1, 2, 3);
foreach ($a as $v) {
  $a[] = $v + 10;
  echo $v . ",";
}
echo count($a);
)";
  EXPECT_EQ(RunWs(src), "1,2,3,6");
}

TEST(Interp, FunctionsAndRecursion) {
  const char* src = R"(
function fib($n) {
  if ($n < 2) { return $n; }
  return fib($n - 1) + fib($n - 2);
}
echo fib(12);
)";
  EXPECT_EQ(RunWs(src), "144");
}

TEST(Interp, FunctionsSeeOwnScope) {
  const char* src = R"(
function f($x) { $y = $x * 2; return $y; }
$y = 5;
echo f(10) . "," . $y;
)";
  EXPECT_EQ(RunWs(src), "20,5");
}

TEST(Interp, NestedIndexAssignmentAutovivifies) {
  const char* src = R"(
$a["users"]["alice"]["visits"] = 3;
$a["users"]["alice"]["visits"] = $a["users"]["alice"]["visits"] + 1;
$a["users"]["bob"] = array();
echo $a["users"]["alice"]["visits"] . "," . count($a["users"]);
)";
  EXPECT_EQ(RunWs(src), "4,2");
}

TEST(Interp, AppendThroughPath) {
  const char* src = R"(
$a["list"][] = "x";
$a["list"][] = "y";
echo implode("-", $a["list"]);
)";
  EXPECT_EQ(RunWs(src), "x-y");
}

TEST(Interp, IncrementDecrementSemantics) {
  const char* src = R"(
$i = 5;
echo $i++;
echo $i;
echo ++$i;
echo $i--;
echo --$i;
)";
  // echo $i++ -> 5 (i=6); echo $i -> 6; echo ++$i -> 7 (i=7); echo $i-- -> 7 (i=6);
  // echo --$i -> 5.
  EXPECT_EQ(RunWs(src), "56775");
}

TEST(Interp, CompoundAssignment) {
  const char* src = R"(
$x = 10;
$x += 5;
$x -= 3;
$s = "a";
$s .= "b";
echo $x . $s;
)";
  EXPECT_EQ(RunWs(src), "12ab");
}

// --- In-place string append (`$v .= e`, `$v = $v . e1 . … . ek` compile to AppendVar) ---

TEST(Append, AliasesKeepTheirOriginal) {
  // Each original is built at run time, so its storage is uniquely owned until aliased.
  EXPECT_EQ(RunWs(R"($a = "x" . "z"; $b = $a; $b .= "y"; $a .= "1"; echo $a . "," . $b;)"),
            "xz1,xzy");
  // The left operand already loaded onto the stack keeps the value before the append.
  EXPECT_EQ(RunWs(R"($v = "a" . "b"; echo $v . ($v .= "c") . $v;)"), "ababcabc");
  EXPECT_EQ(RunWs(R"(
function f($s) { $s .= "y"; $s = $s . "!"; return $s; }
$a = "x" . "z";
$r = f($a);
echo $a . "," . $r;
)"),
            "xz,xzy!");
  EXPECT_EQ(RunWs(R"(
$arr = array("p" . "1", "q" . "2");
foreach ($arr as $v) { $v .= "!"; echo $v; }
echo "/" . implode(",", $arr);
)"),
            "p1!q2!/p1,q2");
  EXPECT_EQ(RunWs(R"(
$arr = array("c" => "v" . "w");
$x = $arr["c"];
$x = $x . "+" . "y";
$arr["d"] = $x;
$x .= "z";
echo $arr["c"] . "," . $arr["d"] . "," . $x;
)"),
            "vw,vw+y,vw+yz");
}

TEST(Append, ConstantsAreNeverWrittenInPlace) {
  // The loop appends to a copy of the same chunk constant on every iteration.
  EXPECT_EQ(RunWs(R"(for ($i = 0; $i < 3; $i++) { $s = "k"; $s .= $i; echo $s; })"), "k0k1k2");
}

TEST(Append, SelfMentioningSuffixKeepsLoadFirstOrder) {
  EXPECT_EQ(RunWs(R"($v = "a"; $v .= ($v = "x"); echo $v;)"), "ax");
  EXPECT_EQ(RunWs(R"($v = "b"; $v = $v . "a" . $v; echo $v;)"), "bab");
  EXPECT_EQ(RunWs(R"($v = "c"; $v .= $v; echo $v;)"), "cc");
  EXPECT_EQ(RunWs(R"($v = 1; $v = $v . "-" . $v++; echo $v;)"), "1-1");
}

TEST(Append, NonStringStartValues) {
  EXPECT_EQ(RunWs(R"($v .= "a"; echo $v;)"), "a");  // Unassigned: null.
  EXPECT_EQ(RunWs(R"($v = null; $v .= "a"; echo $v;)"), "a");
  EXPECT_EQ(RunWs(R"($v = 5; $v .= "a"; echo $v;)"), "5a");
  EXPECT_EQ(RunWs(R"($v = 1.5; $v = $v . "x" . 2; echo $v;)"), "1.5x2");
  EXPECT_EQ(RunWs(R"($v = array(1, "b"); $v .= "x"; echo $v;)"), "Array(0=>1,1=>b)x");
  EXPECT_EQ(RunWs(R"($v = "s"; $v .= 7; $v .= 0.5; $v .= true; $v .= null; echo $v;)"),
            "s70.51");
}

TEST(Append, ExpressionValueIsTheNewString) {
  EXPECT_EQ(RunWs(R"($v = "a"; $w = ($v .= "b"); $w .= "c"; echo $v . "," . $w;)"), "ab,abc");
  EXPECT_EQ(RunWs(R"($v = "a"; echo $v = $v . "b" . "c"; echo $v;)"), "abcabc");
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    n++;
  }
  return n;
}

int AppendVarCount(const std::string& src) {
  Result<Program> prog = CompileSource(src, "/t");
  EXPECT_TRUE(prog.ok()) << prog.error();
  return prog.ok() ? CountOccurrences(Disassemble(prog.value()), "AppendVar") : -1;
}

TEST(Compiler, AppendVarOnlyForSelfAppends) {
  EXPECT_EQ(AppendVarCount(R"($s = "a"; $s .= "b"; $s = $s . "c" . "d";)"), 3);
  EXPECT_EQ(AppendVarCount(R"($s = $s . ($t . "u");)"), 1);  // One suffix: ($t . "u").
  EXPECT_EQ(AppendVarCount(R"($v .= ($v = "x");)"), 0);
  EXPECT_EQ(AppendVarCount(R"($v = $v . "a" . $v;)"), 0);
  EXPECT_EQ(AppendVarCount(R"($v .= f($v); function f($x) { return $x; })"), 0);
  EXPECT_EQ(AppendVarCount(R"($v = $w . "a";)"), 0);
  EXPECT_EQ(AppendVarCount(R"($v = "a" . $v;)"), 0);
  EXPECT_EQ(AppendVarCount(R"($v = $v + 1 . "a";)"), 0);
  EXPECT_EQ(AppendVarCount(R"($v[0] = $v[0] . "a";)"), 0);
}

TEST(Interp, StringIndexing) {
  EXPECT_EQ(RunWs("$s = \"hello\"; echo $s[1];"), "e");
  EXPECT_EQ(RunWs("$s = \"hi\"; echo isset($s[9]) ? \"y\" : \"n\";"), "n");
}

TEST(Interp, MissingInputIsNull) {
  EXPECT_EQ(RunWs("echo isset(input(\"nope\")) ? \"y\" : \"n\";"), "n");
}

TEST(Interp, TopLevelReturnEndsRequest) {
  EXPECT_EQ(RunWs("echo \"a\"; return; echo \"b\";"), "a");
}

// --- Deterministic traps ---

TEST(Interp, DivisionByZeroTraps) {
  bool trapped = false;
  RunWs("echo 1 / 0;", {}, &trapped);
  EXPECT_TRUE(trapped);
}

TEST(Interp, ArithmeticOnWordTraps) {
  bool trapped = false;
  RunWs("echo \"abc\" + 1;", {}, &trapped);
  EXPECT_TRUE(trapped);
}

TEST(Interp, InstructionLimitTraps) {
  Result<Program> prog = CompileSource("while (true) { $x = 1; }", "/t");
  ASSERT_TRUE(prog.ok());
  RequestParams params;
  InterpreterOptions opts;
  opts.max_instructions = 10000;
  Interpreter interp(&prog.value(), &params, opts);
  StepResult step = interp.Run();
  EXPECT_EQ(step.kind, StepResult::Kind::kError);
}

TEST(Interp, ForeachOverNonArrayTraps) {
  bool trapped = false;
  RunWs("foreach (5 as $v) { echo $v; }", {}, &trapped);
  EXPECT_TRUE(trapped);
}

TEST(Compiler, RejectsUnknownFunction) {
  EXPECT_FALSE(CompileSource("mystery_fn(1);", "/t").ok());
}

TEST(Compiler, RejectsWrongBuiltinArity) {
  EXPECT_FALSE(CompileSource("strlen();", "/t").ok());
  EXPECT_FALSE(CompileSource("strlen(\"a\", \"b\");", "/t").ok());
}

TEST(Compiler, RejectsDuplicateFunction) {
  EXPECT_FALSE(CompileSource("function f() {} function f() {}", "/t").ok());
}

TEST(Compiler, RejectsCompoundAssignToElement) {
  EXPECT_FALSE(CompileSource("$a[0] += 1;", "/t").ok());
}

TEST(Compiler, UserFunctionShadowsBuiltin) {
  EXPECT_EQ(RunWs("function strlen($s) { return 99; } echo strlen(\"ab\");"), "99");
}

TEST(Compiler, DisassembleMentionsOpcodes) {
  Result<Program> prog = CompileSource("$x = 1 + 2; echo $x;", "/t");
  ASSERT_TRUE(prog.ok());
  std::string dis = Disassemble(prog.value());
  EXPECT_NE(dis.find("Add"), std::string::npos);
  EXPECT_NE(dis.find("Echo"), std::string::npos);
}

// --- Control-flow digests (the basis of grouping) ---

uint64_t DigestOf(const std::string& src, RequestParams params) {
  Result<Program> prog = CompileSource(src, "/t");
  EXPECT_TRUE(prog.ok()) << prog.error();
  InterpreterOptions opts;
  opts.record_digest = true;
  Interpreter interp(&prog.value(), &params, opts);
  StepResult step = interp.Run();
  EXPECT_EQ(step.kind, StepResult::Kind::kFinished);
  return interp.digest();
}

TEST(Digest, SameFlowSameDigest) {
  const char* src = "$x = intval(input(\"x\")); if ($x > 0) { echo \"p\"; } else { echo \"n\"; }";
  EXPECT_EQ(DigestOf(src, {{"x", "1"}}), DigestOf(src, {{"x", "99"}}));
  EXPECT_EQ(DigestOf(src, {{"x", "-1"}}), DigestOf(src, {{"x", "-7"}}));
}

TEST(Digest, DifferentBranchDifferentDigest) {
  const char* src = "$x = intval(input(\"x\")); if ($x > 0) { echo \"p\"; } else { echo \"n\"; }";
  EXPECT_NE(DigestOf(src, {{"x", "1"}}), DigestOf(src, {{"x", "-1"}}));
}

TEST(Digest, IterationCountFeedsDigest) {
  const char* src = "$n = intval(input(\"n\")); for ($i = 0; $i < $n; $i++) { echo \"x\"; }";
  EXPECT_NE(DigestOf(src, {{"n", "2"}}), DigestOf(src, {{"n", "3"}}));
  EXPECT_EQ(DigestOf(src, {{"n", "3"}}), DigestOf(src, {{"n", "3"}}));
}

}  // namespace
}  // namespace orochi
