#include "src/server/server_core.h"

#include <ctime>

#include "src/common/hash.h"
#include "src/objects/db_adapter.h"
#include "src/objects/wire_format.h"

namespace orochi {

namespace {

uint64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Workload epoch: an arbitrary fixed base so time() values look like unix timestamps.
constexpr int64_t kTimeBase = 1'500'000'000;

}  // namespace

Value NondetSource::Produce(const std::string& name, const std::vector<Value>& args) {
  uint64_t tick = counter_.fetch_add(1);
  if (name == "time") {
    // Coarse seconds that advance monotonically with activity.
    return Value::Int(kTimeBase + static_cast<int64_t>(tick / 100));
  }
  if (name == "microtime") {
    return Value::Float(static_cast<double>(kTimeBase) + static_cast<double>(tick) * 1e-4);
  }
  if (name == "rand") {
    int64_t lo = args.size() > 0 ? args[0].ToInt() : 0;
    int64_t hi = args.size() > 1 ? args[1].ToInt() : 0;
    if (hi < lo) {
      return Value::Int(lo);
    }
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return Value::Int(lo + static_cast<int64_t>(Mix64(tick * 0x9e3779b97f4a7c15ull) % span));
  }
  return Value::Null();
}

ServerCore::ServerCore(const Application* app, const InitialState& init, ServerOptions options)
    : app_(app), options_(options) {
  registers_.Load(init.registers);
  kv_.Load(init.kv);
  db_ = init.db;
  ResetReportsLocked();  // No contention in the constructor.
}

void ServerCore::ResetReportsLocked() {
  reports_ = Reports{};
  if (options_.record_reports) {
    // Well-known object ids 0 (kv) and 1 (db); registers get ids on first use.
    reports_.objects.push_back({ObjectKind::kKv, ""});
    reports_.objects.push_back({ObjectKind::kDb, ""});
    reports_.op_logs.resize(2);
  }
}

Reports ServerCore::TakeReports() {
  std::lock_guard<std::mutex> lock(report_mu_);
  Reports out = std::move(reports_);
  ResetReportsLocked();
  return out;
}

Status ServerCore::ExportReports(const std::string& path) {
  std::lock_guard<std::mutex> lock(report_mu_);
  // The shared writer emits wire v3: an object whose op-log outgrows
  // wire::kMaxOpLogSegmentBytes spills as byte-capped segment records, so a hot object
  // here never forces the verifier's pass 1 to materialize its whole log at once.
  if (Status st = WriteReportsFile(path, reports_, options_.io_env); !st.ok()) {
    return st;
  }
  ResetReportsLocked();
  return Status::Ok();
}

void ServerCore::AppendOpRecord(size_t object, OpRecord rec) {
  std::lock_guard<std::mutex> lock(report_mu_);
  reports_.op_logs[object].push_back(std::move(rec));
}

void ServerCore::AppendRegisterOp(const std::string& name, OpRecord rec) {
  std::lock_guard<std::mutex> lock(report_mu_);
  int id = reports_.FindObject(ObjectKind::kRegister, name);
  if (id < 0) {
    reports_.objects.push_back({ObjectKind::kRegister, name});
    reports_.op_logs.emplace_back();
    id = static_cast<int>(reports_.objects.size() - 1);
  }
  reports_.op_logs[static_cast<size_t>(id)].push_back(std::move(rec));
}

Value ServerCore::PerformStateOp(RequestId rid, uint32_t opnum, const StateOpRequest& op) {
  const bool rec = options_.record_reports;
  switch (op.type) {
    case StateOpType::kRegisterRead: {
      std::lock_guard<std::mutex> lock(reg_mu_);
      Value v = registers_.Read(op.target);
      if (rec) {
        AppendRegisterOp(op.target, {rid, opnum, StateOpType::kRegisterRead, ""});
      }
      return v;
    }
    case StateOpType::kRegisterWrite: {
      std::lock_guard<std::mutex> lock(reg_mu_);
      registers_.Write(op.target, op.value);
      if (rec) {
        AppendRegisterOp(op.target, {rid, opnum, StateOpType::kRegisterWrite,
                                     MakeRegisterWriteContents(op.value)});
      }
      return Value::Null();
    }
    case StateOpType::kKvGet: {
      std::lock_guard<std::mutex> lock(kv_mu_);
      Value v = kv_.Get(op.key);
      if (rec) {
        AppendOpRecord(0, {rid, opnum, StateOpType::kKvGet, op.key});
      }
      return v;
    }
    case StateOpType::kKvSet: {
      std::lock_guard<std::mutex> lock(kv_mu_);
      kv_.Set(op.key, op.value);
      if (rec) {
        AppendOpRecord(0, {rid, opnum, StateOpType::kKvSet,
                           MakeKvSetContents(op.key, op.value)});
      }
      return Value::Null();
    }
    case StateOpType::kDbOp: {
      std::lock_guard<std::mutex> lock(db_mu_);
      bool is_txn = op.db_is_txn;
      Value result;
      bool success;
      if (!is_txn) {
        Result<StmtResult> r = db_.ExecuteText(op.sql[0]);
        success = r.ok();
        result = r.ok() ? StmtResultToValue(r.value()) : DbQueryFailureValue();
      } else {
        Database::TxnResult r = db_.ExecuteTransaction(op.sql);
        success = r.committed;
        result = DbTxnResultToValue(r.committed, r.results);
      }
      if (rec) {
        AppendOpRecord(1, {rid, opnum, StateOpType::kDbOp,
                           MakeDbContents(op.sql, is_txn, success)});
      }
      return result;
    }
  }
  return Value::Null();
}

void ServerCore::FinalizeRequest(RequestId rid, uint64_t tag, uint32_t op_count,
                                 std::vector<NondetRecord> nondet_records) {
  if (!options_.record_reports) {
    return;
  }
  std::lock_guard<std::mutex> lock(report_mu_);
  reports_.groups[tag].push_back(rid);
  reports_.op_counts[rid] = op_count;
  if (!nondet_records.empty()) {
    reports_.nondet[rid] = std::move(nondet_records);
  }
}

std::string ServerCore::HandleRequest(RequestId rid, const std::string& script,
                                      const RequestParams& params) {
  uint64_t cpu_start = ThreadCpuNanos();
  std::string body;
  const Program* prog = app_->GetScript(script);
  if (prog == nullptr) {
    body = kNoSuchScriptBody;
    FinalizeRequest(rid, FnvHash("missing:" + script), 0, {});
  } else {
    InterpreterOptions iopts;
    iopts.record_digest = options_.record_reports;
    Interpreter interp(prog, &params, iopts);
    uint32_t opnum = 0;
    std::vector<NondetRecord> nondet_records;
    while (true) {
      StepResult step = interp.Run();
      if (step.kind == StepResult::Kind::kFinished) {
        body = interp.output();
        break;
      }
      if (step.kind == StepResult::Kind::kError) {
        body = interp.output() + "\n[error] " + step.error;
        break;
      }
      if (step.kind == StepResult::Kind::kStateOp) {
        opnum++;
        interp.ProvideValue(PerformStateOp(rid, opnum, step.op));
        continue;
      }
      // Nondet.
      Value v = nondet_.Produce(step.nondet.name, step.nondet.args);
      if (options_.record_reports) {
        nondet_records.push_back({step.nondet.name, v.Serialize()});
      }
      interp.ProvideValue(std::move(v));
    }
    FinalizeRequest(rid, interp.digest(), opnum, std::move(nondet_records));
  }
  cpu_ns_.fetch_add(ThreadCpuNanos() - cpu_start);
  requests_served_.fetch_add(1);
  return body;
}

InitialState ServerCore::SnapshotState() const {
  InitialState out;
  out.registers = registers_.Snapshot();
  out.kv = kv_.Snapshot();
  out.db = db_;
  return out;
}

}  // namespace orochi
