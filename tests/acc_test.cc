// SIMD-on-demand (acc interpreter) tests: group execution must be observationally
// identical to running each request through the scalar interpreter (the property the
// paper's Theorem 10 difference-(ii) argument relies on), collapse must deduplicate, and
// divergence must be detected.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/lang/acc_interpreter.h"
#include "src/lang/compiler.h"
#include "src/lang/interpreter.h"

namespace orochi {
namespace {

// Drives a scalar interpreter with null state results and a fixed nondet counter.
std::string RunScalar(const Program& prog, const RequestParams& params) {
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
      interp.ProvideValue(Value::Int(clock));  // Deterministic stand-in result.
      continue;
    }
    interp.ProvideValue(Value::Int(clock++));
  }
}

struct AccRun {
  std::vector<std::string> outputs;
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
        std::vector<Value> results(params.size(), Value::Int(clock));
        acc.ProvideValues(std::move(results));
        break;
      }
      case AccStepResult::Kind::kNondet: {
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
// input sets (with state/nondet fed identically).
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
  };
  Rng rng(1234 + static_cast<uint64_t>(GetParam()));
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
      params.push_back(std::move(p));
    }
    AccRun group = RunAcc(prog, params);
    ASSERT_EQ(group.final_kind, AccStepResult::Kind::kFinished);
    for (size_t j = 0; j < params.size(); j++) {
      EXPECT_EQ(group.outputs[j], RunScalar(prog, params[j]))
          << "script mismatch at member " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccEquivalence, ::testing::Range(0, 10));

}  // namespace
}  // namespace orochi
