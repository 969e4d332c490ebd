// SIMD-on-demand (acc interpreter) tests: group execution must be observationally
// identical to running each request through the scalar interpreter (the property the
// paper's Theorem 10 difference-(ii) argument relies on), collapse must deduplicate, and
// divergence must be detected.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/lang/acc_interpreter.h"
#include "src/lang/compiler.h"
#include "src/lang/interpreter.h"
#include "tests/test_util.h"

namespace orochi {
namespace {

// One line per state op / nondet call, with every operand, so a group run's per-request
// requests can be compared with a scalar run's.
std::string DescribeOp(const StateOpRequest& op) {
  std::string out = std::to_string(static_cast<int>(op.type));
  out += "|" + op.target + "|" + op.key + "|" + op.value.Serialize();
  for (const std::string& sql : op.sql) {
    out += "|" + sql;
  }
  return out + "\n";
}

std::string DescribeNondet(const NondetRequest& call) {
  std::string out = call.name;
  for (const Value& arg : call.args) {
    out += "|" + arg.Serialize();
  }
  return out + "\n";
}

// Drives a scalar interpreter with a fixed stand-in state result and a nondet counter.
// When `ops` is set, every state op and nondet call is appended to it (DescribeOp).
std::string RunScalar(const Program& prog, const RequestParams& params,
                      std::string* ops = nullptr) {
  Interpreter interp(&prog, &params);
  int64_t clock = 7;
  while (true) {
    StepResult step = interp.Run();
    if (step.kind == StepResult::Kind::kFinished) {
      return interp.output();
    }
    if (step.kind == StepResult::Kind::kError) {
      return "<trap>" + interp.output();
    }
    if (step.kind == StepResult::Kind::kStateOp) {
      if (ops != nullptr) {
        *ops += DescribeOp(step.op);
      }
      interp.ProvideValue(Value::Int(clock));  // Deterministic stand-in result.
      continue;
    }
    if (ops != nullptr) {
      *ops += DescribeNondet(step.nondet);
    }
    interp.ProvideValue(Value::Int(clock++));
  }
}

struct AccRun {
  std::vector<std::string> outputs;
  std::vector<std::string> ops;  // Per request, as RunScalar records them.
  uint64_t total = 0;
  uint64_t multivalent = 0;
  AccStepResult::Kind final_kind;
};

AccRun RunAcc(const Program& prog, const std::vector<RequestParams>& params) {
  std::vector<const RequestParams*> ptrs;
  for (const RequestParams& p : params) {
    ptrs.push_back(&p);
  }
  AccInterpreter acc(&prog, ptrs);
  int64_t clock = 7;
  AccRun out;
  out.ops.resize(params.size());
  while (true) {
    AccStepResult step = acc.Run();
    out.final_kind = step.kind;
    switch (step.kind) {
      case AccStepResult::Kind::kFinished:
      case AccStepResult::Kind::kError:
      case AccStepResult::Kind::kDiverged:
      case AccStepResult::Kind::kFallback:
        out.outputs = acc.outputs();
        out.total = acc.total_instructions();
        out.multivalent = acc.multivalent_instructions();
        return out;
      case AccStepResult::Kind::kStateOp: {
        for (size_t j = 0; j < params.size(); j++) {
          out.ops[j] += DescribeOp(step.ops[j]);
        }
        std::vector<Value> results(params.size(), Value::Int(clock));
        acc.ProvideValues(std::move(results));
        break;
      }
      case AccStepResult::Kind::kNondet: {
        for (size_t j = 0; j < params.size(); j++) {
          out.ops[j] += DescribeNondet(step.nondets[j]);
        }
        std::vector<Value> results(params.size(), Value::Int(clock));
        clock++;
        acc.ProvideValues(std::move(results));
        break;
      }
    }
  }
}

Program Compile(const std::string& src) {
  Result<Program> prog = CompileSource(src, "/acc");
  EXPECT_TRUE(prog.ok()) << prog.error();
  return std::move(prog).value();
}

TEST(Acc, PaperSection43Example) {
  // The paper's acc-PHP walkthrough: x+y sums differ, max collapses, so the parity code
  // runs univalently (§4.3).
  Program prog = Compile(R"WS(
$sum = intval(input("x")) + intval(input("y"));
$larger = max($sum, intval(input("z")));
$odd = ($larger % 2) ? "True" : "False";
echo $odd;
)WS");
  std::vector<RequestParams> params = {{{"x", "1"}, {"y", "3"}, {"z", "10"}},
                                       {{"x", "2"}, {"y", "4"}, {"z", "10"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], "False");
  EXPECT_EQ(run.outputs[1], "False");
  // After max() collapses to 10, the ternary and echo execute univalently.
  EXPECT_GT(run.multivalent, 0u);
  EXPECT_LT(run.multivalent, run.total / 2);
}

TEST(Acc, IdenticalInputsAreFullyUnivalent) {
  Program prog = Compile(R"WS(
$a = intval(input("a"));
$b = $a * 3 + 1;
echo $b . "-" . strlen(input("a"));
)WS");
  std::vector<RequestParams> params(6, RequestParams{{"a", "41"}});
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  for (const std::string& out : run.outputs) {
    EXPECT_EQ(out, "124-2");
  }
  EXPECT_EQ(run.multivalent, 0u);
}

TEST(Acc, DivergentBranchIsDetected) {
  Program prog = Compile(R"WS(
if (intval(input("x")) > 0) { echo "p"; } else { echo "n"; }
)WS");
  std::vector<RequestParams> params = {{{"x", "1"}}, {{"x", "-1"}}};
  AccRun run = RunAcc(prog, params);
  EXPECT_EQ(run.final_kind, AccStepResult::Kind::kDiverged);
}

TEST(Acc, DivergentIterationCountIsDetected) {
  Program prog = Compile(R"WS(
$parts = explode(",", input("csv"));
foreach ($parts as $p) { echo $p . ";"; }
)WS");
  std::vector<RequestParams> params = {{{"csv", "a,b"}}, {{"csv", "a,b,c"}}};
  AccRun run = RunAcc(prog, params);
  EXPECT_EQ(run.final_kind, AccStepResult::Kind::kDiverged);
}

TEST(Acc, ForeachWithDifferentKeysExecutesComponentwise) {
  // Same iteration count, different keys/values: must run multivalently, not diverge.
  Program prog = Compile(R"WS(
$parts = explode(",", input("csv"));
foreach ($parts as $i => $p) { echo $i . ":" . $p . ";"; }
)WS");
  std::vector<RequestParams> params = {{{"csv", "a,b"}}, {{"csv", "x,y"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], "0:a;1:b;");
  EXPECT_EQ(run.outputs[1], "0:x;1:y;");
}

TEST(Acc, ComponentTrapFallsBack) {
  // "abc" + 1 traps for the second request only: lockstep cannot represent it.
  Program prog = Compile(R"WS(
$x = input("x") + 1;
echo $x;
)WS");
  std::vector<RequestParams> params = {{{"x", "5"}}, {{"x", "abc"}}};
  AccRun run = RunAcc(prog, params);
  EXPECT_EQ(run.final_kind, AccStepResult::Kind::kFallback);
}

TEST(Acc, UniformTrapIsError) {
  Program prog = Compile("echo 1 / intval(input(\"z\"));");
  std::vector<RequestParams> params = {{{"z", "0"}}, {{"z", "0"}}};
  AccRun run = RunAcc(prog, params);
  EXPECT_EQ(run.final_kind, AccStepResult::Kind::kError);
}

TEST(Acc, ScalarExpansionOnArraySet) {
  // Univalue array + multivalue key forces per-request expansion (§4.3). Note: no
  // branching on the divergent lookup — that would be (correct) control-flow divergence.
  Program prog = Compile(R"WS(
$a = array("base" => 1);
$a[input("k")] = 2;
echo count($a) . ":" . intval(isset($a["extra"])) . ":" . $a[input("k")];
)WS");
  std::vector<RequestParams> params = {{{"k", "extra"}}, {{"k", "other"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], "2:1:2");
  EXPECT_EQ(run.outputs[1], "2:0:2");
}

TEST(Acc, MultiValueCellInUnivalueArray) {
  // Storing a multivalue into a univalue container must keep the container univalue (the
  // dedup-friendly case) and still project correctly on read.
  Program prog = Compile(R"WS(
$a = array();
$a["v"] = input("v");
$a["c"] = "const";
echo $a["v"] . $a["c"];
)WS");
  std::vector<RequestParams> params = {{{"v", "1"}}, {{"v", "2"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], "1const");
  EXPECT_EQ(run.outputs[1], "2const");
}

TEST(Acc, BuiltinSplitOnMultiArgs) {
  Program prog = Compile("echo strtoupper(input(\"s\")) . \"!\";");
  std::vector<RequestParams> params = {{{"s", "ab"}}, {{"s", "cd"}}, {{"s", "ab"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], "AB!");
  EXPECT_EQ(run.outputs[1], "CD!");
  EXPECT_EQ(run.outputs[2], "AB!");
}

TEST(Acc, ReconvergenceCollapsesBackToUnivalent) {
  // Values differ mid-flight but re-converge; the tail must run univalently.
  Program prog = Compile(R"WS(
$x = intval(input("x"));
$y = $x * 0;
$tail = "";
for ($i = 0; $i < 50; $i++) { $tail = $tail . $y; }
echo $tail;
)WS");
  std::vector<RequestParams> params = {{{"x", "3"}}, {{"x", "4"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], run.outputs[1]);
  // The 50-iteration tail runs univalently: multivalent count stays small.
  EXPECT_LT(run.multivalent, 10u);
}

TEST(Acc, InPlaceAppendCollapsesWhenComponentsReconverge) {
  // Int 5 and float 5.0 differ as values but render alike: the first append makes the
  // components equal, so the slot collapses and the loop runs univalently.
  Program prog = Compile(R"WS(
$v = input("x") * 1;
$v .= "!";
for ($i = 0; $i < 50; $i++) { $v = $v . "-" . $i; }
echo $v;
)WS");
  std::vector<RequestParams> params = {{{"x", "5"}}, {{"x", "5.0"}}};
  AccRun run = RunAcc(prog, params);
  ASSERT_EQ(run.final_kind, AccStepResult::Kind::kFinished);
  EXPECT_EQ(run.outputs[0], RunScalar(prog, params[0]));
  EXPECT_EQ(run.outputs[1], RunScalar(prog, params[1]));
  EXPECT_EQ(run.outputs[0].substr(0, 6), "5!-0-1");
  EXPECT_EQ(run.multivalent, 2u);  // The multiplication and the first append.
}

// Property: acc group execution == per-request scalar execution, across scripts x random
// input sets (with state/nondet fed identically): the same outputs and the same state-op
// and nondet requests. Seeds are OROCHI_TEST_SEED (default 1234) plus the test parameter.
class AccEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AccEquivalence, MatchesScalarExecution) {
  static const char* kScripts[] = {
      // Mixed arithmetic, branches on a shared flag, array building.
      R"WS(
$n = intval(input("n"));
$mode = input("mode");
$acc = array();
for ($i = 0; $i < 6; $i++) {
  $acc[] = $i * $n;
}
if ($mode == "sum") {
  $t = 0;
  foreach ($acc as $v) { $t += $v; }
  echo "sum=" . $t;
} else {
  echo "list=" . implode("/", $acc);
}
)WS",
      // String processing.
      R"WS(
$words = explode(" ", input("text"));
$out = array();
foreach ($words as $w) {
  $out[] = strtoupper(substr($w, 0, 2)) . strlen($w);
}
echo implode("-", $out);
)WS",
      // Function calls and nested arrays.
      R"WS(
function classify($v) {
  if ($v % 3 == 0) { return "fizz"; }
  return "n" . ($v % 3);
}
$x = intval(input("x"));
$r = array();
$r["a"]["b"] = classify($x * 3);
$r["a"]["c"] = classify(6);
echo $r["a"]["b"] . "," . $r["a"]["c"];
)WS",
      // Page strings built by in-place appends (`.=` and `$v = $v . …`) over univalue and
      // multivalue slots, with univalue and multivalue suffixes; $same reconverges.
      R"WS(
$html = "<h1>" . input("x") . "</h1>";
$html .= "<ul>";
$same = "";
for ($i = 0; $i < 4; $i++) {
  $html = $html . "<li>" . $i . ":" . intval(input("n")) * $i . "</li>";
  $html .= input("mode");
  $same .= input("n");
  $same = $same . intval(input("n")) * 0;
  $same = substr($same, 0, 0) . "s" . $i;
}
$html .= "</ul>";
$cells = array("k" => input("x"));
$cells .= "|";
echo $html . $same . $cells;
)WS",
      // Every multivalent opcode over each operand kind: a univalue ($u, $s), a
      // multivalue ($n, $x, $rows) and a univalue array holding multivalue cells
      // ($cells, $list). Control flow never depends on a multivalue.
      R"WS(
$n = intval(input("n"));
$x = intval(input("x"));
$u = 7;
$s = "a<b&c";
$cells = array("n" => $n, "u" => $u);
$list = array($x, $u, "w");
$rows = explode(",", "r," . $n);
// Binary.
echo ($u + $n) . ";" . ($n * $x) . ";" . ($x / $n) . ";" . ($x % 2) . ";" . ($n < $x);
echo ";" . ($cells . "|") . ($n . $cells) . ($u . $s) . ($list == $cells) . ($n == $u);
// Unary.
echo ";" . -$n . ";" . !$x . ";" . !$cells . ";" . -$u . "\n";
// Index get: multi container, multi key, array with multivalue cells.
echo $rows[1] . ";" . $rows[$x % 2] . ";" . $cells["n"] . ";" . $list[$x % 2] . ";";
echo $s[$x] . ";" . $list[0] . "\n";
// Array literals: append and insert into univalue and multivalue targets.
$lit = array($n => "a", "b", $x, $cells);
$lit2 = array("k" => $cells, $x => $list, "m" => $n);
$lit3 = array($u, $x, $cells);
echo $lit . ";" . $lit2 . ";" . $lit3 . "\n";
// Index set through paths, with each kind of root, key and value.
$cells["z"] = $x;
$cells[$x] = "v";
$rows[] = $cells;
$rows[0] = $n;
$t = array();
$t["a"]["b"] = $n;
$t["a"][$x] = $cells;
$t2 = array("a" => $rows, "b" => $u);
$t2["a"][0] = "q";
$t2["c"][] = $list;
echo $cells . ";" . $rows . ";" . $t . ";" . $t2 . "\n";
// Iteration over a multivalue and over an array with multivalue cells.
foreach ($rows as $k => $v) { echo $k . "=" . $v . ","; }
foreach ($cells as $k => $v) { echo $k . "=" . $v . ","; }
// Echo of each kind.
echo $n; echo $cells; echo $u; echo "\n";
// Input names.
echo input("p" . $x) . input("mode") . input($x) . input($cells) . "\n";
// State-op and nondet arguments.
kv_set("k" . $x, $cells);
kv_get("k" . $n);
reg_write("r", $list);
reg_write("r" . $n, $u);
reg_read("r" . $x);
db_query("SELECT " . $n);
db_txn(array("UPDATE t SET v = " . $x, "DELETE FROM t"));
echo rand($n, $x) . rand($u, 9) . rand($cells, 2) . "\n";
// Pure builtins: univalue arguments bound once, the others per component.
echo substr($s, $x) . ";" . str_replace("a", $n, "banana") . ";" . implode(",", $cells);
echo ";" . count($rows) . ";" . htmlspecialchars("<" . $n . ">") . ";" . max($n, $x, $u);
echo ";" . strtoupper("x" . $n) . ";" . strtolower($s) . ";" . implode("/", $list) . "\n";
// Appends: each kind of slot and suffix, and a suffix aliasing the slot.
$p = "S";
$p .= $n;
$q = "p" . $x;
$q .= "!";
$c2 = array("v" => $n);
$c2 .= "!";
$w = "W";
$w .= $cells;
$a = "p" . $n;
$b = $a;
$a .= $b;
$arr2 = array($a);
$a .= $arr2;
echo $p . ";" . $q . ";" . $c2 . ";" . $w . ";" . $a . ";" . $b;
)WS",
  };
  const uint64_t base_seed = TestBaseSeed(1234);
  SCOPED_TRACE(SeedTraceMessage(base_seed));
  Rng rng(base_seed + static_cast<uint64_t>(GetParam()));
  for (const char* src : kScripts) {
    Program prog = Compile(src);
    // Build a group with the same control flow: vary only magnitudes, not branches.
    std::vector<RequestParams> params;
    std::string mode = rng.Chance(0.5) ? "sum" : "list";
    for (int j = 0; j < 5; j++) {
      RequestParams p;
      p["n"] = std::to_string(rng.UniformInt(1, 9));
      p["mode"] = mode;
      p["text"] = "alpha beta gamma";  // Same token count keeps control flow shared.
      p["x"] = std::to_string(rng.UniformInt(1, 5));
      for (int k = 1; k <= 5; k++) {
        p["p" + std::to_string(k)] = "in" + std::to_string(k);
      }
      params.push_back(std::move(p));
    }
    AccRun group = RunAcc(prog, params);
    ASSERT_EQ(group.final_kind, AccStepResult::Kind::kFinished);
    for (size_t j = 0; j < params.size(); j++) {
      std::string ops;
      EXPECT_EQ(group.outputs[j], RunScalar(prog, params[j], &ops))
          << "script mismatch at member " << j;
      EXPECT_EQ(group.ops[j], ops) << "op mismatch at member " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccEquivalence, ::testing::Range(0, 10));

}  // namespace
}  // namespace orochi
