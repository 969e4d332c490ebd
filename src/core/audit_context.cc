#include "src/core/audit_context.h"

#include <algorithm>
#include <atomic>

#include "src/common/timer.h"
#include "src/common/task_pool.h"
#include "src/core/auditor.h"
#include "src/objects/db_adapter.h"
#include "src/sql/sql_parser.h"

namespace orochi {

const std::vector<NondetRecord> AuditContext::kNoNondet;

void AuditStats::MergeFrom(const AuditStats& o) {
  phases.MergeFrom(o.phases);
  total_instructions += o.total_instructions;
  multivalent_instructions += o.multivalent_instructions;
  component_steps += o.component_steps;
  num_groups += o.num_groups;
  groups_multi += o.groups_multi;
  fallback_groups += o.fallback_groups;
  ops_checked += o.ops_checked;
  db_selects_issued += o.db_selects_issued;
  db_selects_deduped += o.db_selects_deduped;
  checkpoint_chunks_reused += o.checkpoint_chunks_reused;
  pass1_transient_peak_bytes = std::max(pass1_transient_peak_bytes,
                                        o.pass1_transient_peak_bytes);
  group_stats.insert(group_stats.end(), o.group_stats.begin(), o.group_stats.end());
}

Status OpLogScanner::Scan(size_t object, const OpLogEntryFn& fn, bool* load_failed) {
  for (const OpLogSegment& segment : Segments(object)) {
    if (Status st = ScanSegment(object, segment, fn, load_failed); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

std::vector<OpLogSegment> ResidentOpLogScanner::Segments(size_t object) const {
  const uint64_t n = reports_->op_logs[object].size();
  std::vector<OpLogSegment> out;
  for (uint64_t first = 1; first <= n; first += kSegmentEntries) {
    out.push_back({first, std::min(kSegmentEntries, n - first + 1)});
  }
  return out;
}

Status ResidentOpLogScanner::ScanSegment(size_t object, OpLogSegment segment,
                                         const OpLogEntryFn& fn, bool* /*load_failed*/) {
  const std::vector<OpRecord>& log = reports_->op_logs[object];
  for (uint64_t s = segment.first_seqnum; s < segment.first_seqnum + segment.count; s++) {
    if (Status st = fn(log[static_cast<size_t>(s - 1)], s); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

AuditContext::AuditContext(const Trace* trace, const Reports* reports, const Application* app,
                           const InitialState* initial, AuditOptions options)
    : trace_(trace), reports_(reports), app_(app), initial_(initial),
      options_(std::move(options)), resident_scanner_(reports),
      oplog_scanner_(&resident_scanner_), inline_ws_(&stats_) {}

Status AuditContext::Prepare(bool* load_failed) {
  kv_object_ = reports_->FindObject(ObjectKind::kKv, "");
  db_object_ = reports_->FindObject(ObjectKind::kDb, "");
  for (size_t i = 0; i < reports_->objects.size(); i++) {
    if (reports_->objects[i].kind == ObjectKind::kRegister) {
      register_objects_.emplace(reports_->objects[i].name, static_cast<uint32_t>(i));
    }
  }
  const size_t db = static_cast<size_t>(db_object_);
  const std::vector<OpLogSegment> segments =
      db_object_ < 0 ? std::vector<OpLogSegment>{} : oplog_scanner_->Segments(db);
  db_log_parsed_.assign(db_object_ < 0 ? 0 : reports_->op_logs[db].size(), DbContents{});
  std::vector<DbRedoSlot> slots(db_log_parsed_.size());
  // Callers resolve the thread count before they build a context; a config error here
  // only means no pool.
  Result<size_t> threads = ResolveAuditThreads(options_);
  const size_t num_threads = threads.ok() ? threads.value() : 1;

  // Task 0 is ProcessOpReports, task 1 the register + KV + snapshot builds, task 2 + k
  // the parse of DB segment k. Each task times itself into its own breakdown.
  std::vector<size_t> tasks(2 + segments.size());
  for (size_t t = 0; t < tasks.size(); t++) {
    tasks[t] = t;
  }
  std::vector<obs::PhaseBreakdown> task_phases(tasks.size());
  Status processed;
  // The store builds' outcome, then the replay's: the replay starts once they succeed.
  Status redo;
  bool redo_load_failed = false;
  // Set by the first failure, which outranks every DB log entry the replay has not
  // reached: a task >= 1 that has not started yet returns without paging anything in.
  std::atomic<bool> stop{false};
  // The replay frontier over stages: stage 0 is the store task, stage k + 1 DB segment k.
  // The task that finishes a stage while no one replays replays the ready prefix in
  // seqnum order, inside its own span. Only the replayer touches `frontier`.
  std::mutex frontier_mu;
  std::vector<bool> stage_done(1 + segments.size());
  bool replaying = false;
  size_t frontier = 0;  // First stage not yet replayed.
  TaskPool(std::min(num_threads, tasks.size())).Run(tasks, [&](size_t t) {
    obs::TraceSpan span(&task_phases[t],
                        t == 0 ? obs::Phase::kProcOpReports : obs::Phase::kDbRedo);
    if (t == 0) {
      processed = ProcessReports();
      if (!processed.ok()) {
        stop.store(true);
      }
      return;
    }
    if (stop.load()) {
      return;
    }
    if (t == 1) {
      redo = BuildStores(&redo_load_failed);
      if (!redo.ok()) {
        stop.store(true);
      }
    } else {
      ParseDbSegment(segments[t - 2], &slots);
    }
    std::unique_lock<std::mutex> lock(frontier_mu);
    stage_done[t - 1] = true;
    if (replaying) {
      return;
    }
    replaying = true;
    while (frontier < stage_done.size() && stage_done[frontier] && !stop.load()) {
      const size_t stage = frontier++;
      lock.unlock();
      if (stage > 0) {
        redo = ReplayDbSegment(segments[stage - 1], &slots, &redo_load_failed);
        if (!redo.ok()) {
          stop.store(true);
        }
      }
      lock.lock();
    }
    replaying = false;
  });
  for (const obs::PhaseBreakdown& p : task_phases) {
    stats_.phases.MergeFrom(p);
  }
  // The serial order's first failure wins, whichever task hit its own first.
  if (!processed.ok()) {
    return processed;
  }
  if (!redo.ok()) {
    if (load_failed != nullptr) {
      *load_failed = redo_load_failed;
    }
    return redo;
  }
  // Redo is done: from here on every read of versioned storage is against an immutable
  // snapshot, so audit workers query it without locks.
  versioned_db_.Freeze();
  return Status::Ok();
}

Status AuditContext::ProcessReports() {
  if (Status st = CheckTraceBalanced(*trace_); !st.ok()) {
    return st;
  }
  // Per-rid mutable slots are pre-built here so the re-execution phase never inserts
  // into these maps (concurrent access to distinct entries is then race-free). The
  // trace is balanced, so every traced rid has exactly one response and one slot.
  outputs_.reserve(trace_->events.size() / 2);
  for (size_t i = 0; i < trace_->events.size(); i++) {
    const TraceEvent& e = trace_->events[i];
    if (e.kind == TraceEvent::Kind::kRequest) {
      request_events_[e.rid] = &e;
    } else {
      outputs_[e.rid].response = i;
    }
  }
  nondet_cursors_.reserve(request_events_.size());
  for (const auto& [rid, ev] : request_events_) {
    (void)ev;
    nondet_cursors_.emplace(rid, NondetCursor{});
  }
  Result<ProcessedReports> processed = ProcessOpReports(*trace_, *reports_);
  if (!processed.ok()) {
    return processed.status();
  }
  processed_ = std::move(processed).value();
  return Status::Ok();
}

Status AuditContext::BuildStores(bool* load_failed) {
  if (Status st = BuildRegisterIndexes(load_failed); !st.ok()) {
    return st;
  }
  if (Status st = BuildVersionedKv(load_failed); !st.ok()) {
    return st;
  }
  if (Status st = versioned_db_.LoadInitial(initial_->db); !st.ok()) {
    return st.Prefixed("initial db load: ");
  }
  return Status::Ok();
}

Status AuditContext::BuildRegisterIndexes(bool* load_failed) {
  register_writes_.resize(reports_->objects.size());
  for (size_t i = 0; i < reports_->objects.size(); i++) {
    if (reports_->objects[i].kind != ObjectKind::kRegister) {
      continue;
    }
    Status st = oplog_scanner_->Scan(
        i,
        [&](const OpRecord& op, uint64_t seqnum) {
          if (op.type != StateOpType::kRegisterWrite) {
            return Status::Ok();
          }
          Result<Value> v = ParseRegisterWriteContents(op.contents);
          if (!v.ok()) {
            return Status::Error("register log " + std::to_string(i) + " entry " +
                                 std::to_string(seqnum) + ": " + v.error());
          }
          register_writes_[i].emplace_back(seqnum, std::move(v).value());
          return Status::Ok();
        },
        load_failed);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Status AuditContext::BuildVersionedKv(bool* load_failed) {
  versioned_kv_.LoadInitial(initial_->kv);
  if (kv_object_ < 0) {
    return Status::Ok();
  }
  return oplog_scanner_->Scan(
      static_cast<size_t>(kv_object_),
      [&](const OpRecord& op, uint64_t seqnum) {
        if (op.type != StateOpType::kKvSet) {
          return Status::Ok();
        }
        Result<KvSetContents> kv = ParseKvSetContents(op.contents);
        if (!kv.ok()) {
          return Status::Error("kv log entry " + std::to_string(seqnum) + ": " + kv.error());
        }
        versioned_kv_.AddSet(kv.value().key, seqnum, std::move(kv).value().value);
        return Status::Ok();
      },
      load_failed);
}

void AuditContext::ParseDbSegment(OpLogSegment segment, std::vector<DbRedoSlot>* slots) {
  bool load_failed = false;
  Status st = oplog_scanner_->ScanSegment(
      static_cast<size_t>(db_object_), segment,
      [&](const OpRecord& op, uint64_t s) {
        if (op.type != StateOpType::kDbOp) {
          return Status::Ok();  // Type mismatch is caught by CheckOp if referenced.
        }
        DbRedoSlot& slot = (*slots)[s - 1];
        Result<DbContents> dc = ParseDbContents(op.contents);
        if (!dc.ok()) {
          slot.error = Status::Error("db log entry " + std::to_string(s) + ": " + dc.error());
          return Status::Ok();
        }
        DbContents& contents = db_log_parsed_[s - 1];
        contents = std::move(dc).value();
        if (contents.sql.size() > VersionedDatabase::kMaxQueriesPerTxn - 1) {
          slot.error = Status::Error("db log entry " + std::to_string(s) +
                                     ": too many statements");
          return Status::Ok();
        }
        // A claimed failure is checked only for single statements (see ReplayDbSegment).
        const size_t parse = contents.success ? contents.sql.size()
                                              : (contents.sql.size() == 1 ? 1 : 0);
        slot.stmts.reserve(parse);
        for (size_t q = 0; q < parse; q++) {
          slot.stmts.push_back(ParseCached(contents.sql[q], CacheShard(contents.sql[q])));
        }
        return Status::Ok();
      },
      &load_failed);
  if (!st.ok()) {
    // Only paging fails a segment (entry errors stay in their slots). The replay reaches
    // this before any of the segment's entries.
    DbRedoSlot& first = (*slots)[segment.first_seqnum - 1];
    first.error = std::move(st);
    first.load_failed = load_failed;
  }
}

Status AuditContext::ReplayDbSegment(OpLogSegment segment, std::vector<DbRedoSlot>* slots,
                                     bool* load_failed) {
  // Redo pass (§4.5): replay every logged transaction, stamping query q of log entry s
  // with ts = s * MAXQ + q. Claimed failures are validated where the engine permits.
  const std::vector<OpRecord>& log = reports_->op_logs[static_cast<size_t>(db_object_)];
  for (uint64_t s = segment.first_seqnum; s < segment.first_seqnum + segment.count; s++) {
    DbRedoSlot slot = std::move((*slots)[s - 1]);
    if (!slot.error.ok()) {
      if (slot.load_failed && load_failed != nullptr) {
        *load_failed = true;
      }
      return slot.error;
    }
    if (log[s - 1].type != StateOpType::kDbOp) {
      continue;
    }
    const DbContents& contents = db_log_parsed_[s - 1];
    if (!contents.success) {
      // The executor claims this op failed/aborted. For single statements the claim is
      // checkable exactly; multi-statement aborts are accepted as reported (§4.6 leeway:
      // transaction aborts are a form of non-determinism).
      if (contents.sql.size() == 1 && slot.stmts[0].ok()) {
        const SqlStatement& stmt = *slot.stmts[0].value();
        uint64_t ts = VersionedDatabase::MakeTimestamp(s, 1);
        Result<StmtResult> r = stmt.kind == SqlStmtKind::kSelect
                                   ? versioned_db_.Select(stmt, ts)
                                   : versioned_db_.ApplyWrite(stmt, ts, /*commit=*/false);
        if (r.ok()) {
          return Status::Error("db log entry " + std::to_string(s) +
                               " claims failure but the statement succeeds on replay");
        }
      }
      continue;
    }
    for (size_t q = 1; q <= contents.sql.size(); q++) {
      const Result<std::shared_ptr<const SqlStatement>>& stmt = slot.stmts[q - 1];
      if (!stmt.ok()) {
        return Status::Error("db log entry " + std::to_string(s) +
                             " claims success but statement " + std::to_string(q) +
                             " does not parse: " + stmt.error());
      }
      if (stmt.value()->kind == SqlStmtKind::kSelect) {
        continue;  // Reads re-execute during SimOp at their timestamp.
      }
      uint64_t ts = VersionedDatabase::MakeTimestamp(s, q);
      Result<StmtResult> r = versioned_db_.ApplyWrite(*stmt.value(), ts);
      if (!r.ok()) {
        return Status::Error("db log entry " + std::to_string(s) +
                             " claims success but replay fails: " + r.error());
      }
      redo_affected_[ts] = r.value().affected;
    }
  }
  return Status::Ok();
}

uint32_t AuditContext::OpCount(RequestId rid) const {
  auto it = processed_.op_counts.find(rid);
  return it == processed_.op_counts.end() ? 0 : it->second;
}

const TraceEvent* AuditContext::RequestEvent(RequestId rid) const {
  auto it = request_events_.find(rid);
  return it == request_events_.end() ? nullptr : it->second;
}

Result<OpLocation> AuditContext::CheckOp(RequestId rid, uint32_t opnum,
                                         const StateOpRequest& op, AuditWorkerState* ws) {
  using R = Result<OpLocation>;
  ws->stats->ops_checked++;
  OpLocation loc = processed_.op_map.Find(rid, opnum);
  if (!loc.valid()) {
    return R::Error("CheckOp: (rid " + std::to_string(rid) + ", opnum " +
                    std::to_string(opnum) + ") not in OpMap");
  }
  // The object the program targeted must be the object whose log claims this op.
  int expected_object = -1;
  if (op.type == StateOpType::kRegisterRead || op.type == StateOpType::kRegisterWrite) {
    auto it = register_objects_.find(op.target);
    expected_object = it == register_objects_.end() ? -1 : static_cast<int>(it->second);
  } else {
    expected_object = op.type == StateOpType::kDbOp ? db_object_ : kv_object_;
  }
  if (expected_object < 0 || static_cast<uint32_t>(expected_object) != loc.object) {
    return R::Error("CheckOp: object mismatch for (rid " + std::to_string(rid) + ", opnum " +
                    std::to_string(opnum) + ")");
  }
  const OpRecord& entry = reports_->op_logs[loc.object][loc.seqnum - 1];
  if (entry.type != op.type) {
    return R::Error("CheckOp: optype mismatch");
  }
  switch (op.type) {
    case StateOpType::kRegisterRead:
      if (!entry.contents.empty()) {
        return R::Error("CheckOp: register read has non-empty contents");
      }
      break;
    case StateOpType::kRegisterWrite:
      ws->scratch.clear();
      AppendRegisterWriteContents(&ws->scratch, op.value);
      if (entry.contents != ws->scratch) {
        return R::Error("CheckOp: register write contents mismatch");
      }
      break;
    case StateOpType::kKvGet:
      if (entry.contents != op.key) {
        return R::Error("CheckOp: kv get key mismatch");
      }
      break;
    case StateOpType::kKvSet:
      ws->scratch.clear();
      AppendKvSetContents(&ws->scratch, op.key, op.value);
      if (entry.contents != ws->scratch) {
        return R::Error("CheckOp: kv set contents mismatch");
      }
      break;
    case StateOpType::kDbOp: {
      if (db_object_ < 0 || loc.object != static_cast<uint32_t>(db_object_) ||
          loc.seqnum > db_log_parsed_.size()) {
        return R::Error("CheckOp: db op points outside the db log");
      }
      const DbContents& dc = db_log_parsed_[loc.seqnum - 1];
      if (dc.sql != op.sql || dc.is_txn != op.db_is_txn) {
        return R::Error("CheckOp: db statements mismatch");
      }
      break;
    }
  }
  return loc;
}

AuditContext::QueryCacheShard& AuditContext::CacheShard(const std::string& sql) {
  return query_cache_[std::hash<std::string>{}(sql) % kQueryCacheShards];
}

Result<std::shared_ptr<const SqlStatement>> AuditContext::ParseCached(const std::string& sql,
                                                                      QueryCacheShard& shard) {
  using R = Result<std::shared_ptr<const SqlStatement>>;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto pit = shard.parse.find(sql);
    if (pit != shard.parse.end()) {
      return R(pit->second);
    }
  }
  // Parsing happens outside the shard lock; if two workers race on the same uncached
  // SELECT, both parse and the first insert wins (identical content either way).
  Result<SqlStatement> parsed = ParseSql(sql);
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto stmt = std::make_shared<const SqlStatement>(std::move(parsed).value());
  if (stmt->kind != SqlStmtKind::kSelect) {
    return R(std::move(stmt));
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  return R(shard.parse.emplace(sql, std::move(stmt)).first->second);
}

Result<Value> AuditContext::RunSelect(const std::string& sql, uint64_t ts,
                                      AuditWorkerState* ws) {
  using R = Result<Value>;
  QueryCacheShard& shard = CacheShard(sql);
  Result<std::shared_ptr<const SqlStatement>> parsed = ParseCached(sql, shard);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const std::shared_ptr<const SqlStatement>& stmt = parsed.value();
  if (stmt->kind != SqlStmtKind::kSelect) {
    return R::Error("RunSelect: not a SELECT");
  }

  // A cached result at ts' serves ts when the touched table was not modified in
  // (min, max] — test both neighbours of the insertion position for ts.
  auto reusable = [&](const DedupEntry& e) {
    uint64_t lo = std::min(e.ts, ts);
    uint64_t hi = std::max(e.ts, ts);
    return lo == hi || !versioned_db_.TableModifiedBetween(stmt->table, lo, hi);
  };
  if (options_.enable_query_dedup) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<DedupEntry>& entries = shard.dedup[sql];
    auto pos = std::lower_bound(entries.begin(), entries.end(), ts,
                                [](const DedupEntry& e, uint64_t t) { return e.ts < t; });
    if (pos != entries.end() && reusable(*pos)) {
      ws->stats->db_selects_deduped++;
      return R(pos->result);
    }
    if (pos != entries.begin() && reusable(*(pos - 1))) {
      ws->stats->db_selects_deduped++;
      return R((pos - 1)->result);
    }
  }

  // Miss: run the SELECT against the frozen versioned store with no lock held. Two
  // workers may both miss the same (sql, window) concurrently; both charge an issued
  // SELECT, so issued + deduped always equals the number of logical SELECTs simulated.
  ws->stats->db_selects_issued++;
  WallTimer select_timer;
  Result<StmtResult> r = versioned_db_.Select(*stmt, ts);
  // Quiet record: the enclosing pass2_execute span subtracts it and forwards it to the
  // process tracer once per chunk.
  ws->stats->phases.Add(obs::Phase::kDbQuery, select_timer.Seconds());
  if (!r.ok()) {
    return r.status();
  }
  Value value = StmtResultToValue(r.value());
  if (options_.enable_query_dedup) {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<DedupEntry>& entries = shard.dedup[sql];
    auto pos = std::lower_bound(entries.begin(), entries.end(), ts,
                                [](const DedupEntry& e, uint64_t t) { return e.ts < t; });
    if (pos == entries.end() || pos->ts != ts) {
      entries.insert(pos, {ts, value});
    }
  }
  return R(std::move(value));
}

Result<Value> AuditContext::SimDbOp(const StateOpRequest& op, OpLocation loc,
                                    AuditWorkerState* ws) {
  using R = Result<Value>;
  const DbContents& dc = db_log_parsed_[loc.seqnum - 1];
  if (!dc.success) {
    return op.db_is_txn ? DbTxnResultToValue(false, std::vector<Value>{})
                        : DbQueryFailureValue();
  }
  std::vector<Value> results;
  results.reserve(dc.sql.size());
  for (size_t q = 1; q <= dc.sql.size(); q++) {
    uint64_t ts = VersionedDatabase::MakeTimestamp(loc.seqnum, q);
    auto affected = redo_affected_.find(ts);
    if (affected != redo_affected_.end()) {
      results.push_back(Value::Int(affected->second));
      continue;
    }
    // A read (or a CREATE, which records affected = 0 and is handled above).
    Result<Value> r = RunSelect(dc.sql[q - 1], ts, ws);
    if (!r.ok()) {
      return R::Error("db op " + std::to_string(loc.seqnum) +
                      " claims success but read fails on replay: " + r.error());
    }
    results.push_back(std::move(r).value());
  }
  if (op.db_is_txn) {
    return DbTxnResultToValue(true, std::move(results));
  }
  return std::move(results[0]);
}

Result<Value> AuditContext::SimOp(const StateOpRequest& op, OpLocation loc,
                                  AuditWorkerState* ws) {
  switch (op.type) {
    case StateOpType::kRegisterRead: {
      // "Walk backward from s for the latest RegisterWrite" (Figure 12), over the
      // pre-parsed per-object write index; absent writes fall back to the initial state.
      const auto& writes = register_writes_[loc.object];
      auto pos = std::lower_bound(
          writes.begin(), writes.end(), static_cast<uint64_t>(loc.seqnum),
          [](const std::pair<uint64_t, Value>& w, uint64_t s) { return w.first < s; });
      if (pos != writes.begin()) {
        return (pos - 1)->second;
      }
      auto init = initial_->registers.find(op.target);
      return init == initial_->registers.end() ? Value::Null() : init->second;
    }
    case StateOpType::kKvGet:
      return versioned_kv_.Get(op.key, loc.seqnum);
    case StateOpType::kRegisterWrite:
    case StateOpType::kKvSet:
      return Value::Null();
    case StateOpType::kDbOp:
      return SimDbOp(op, loc, ws);
  }
  return Value::Null();
}

void AuditContext::ResetNondet(RequestId rid) {
  // Slots were pre-built for every traced rid; callers validate RequestEvent(rid) first,
  // so a miss means the rid is untraced and the replay will fail on that check instead.
  auto it = nondet_cursors_.find(rid);
  if (it != nondet_cursors_.end()) {
    it->second = NondetCursor{};
  }
}

Result<Value> AuditContext::NextNondet(RequestId rid, const NondetRequest& req) {
  using R = Result<Value>;
  auto rit = reports_->nondet.find(rid);
  const std::vector<NondetRecord>& records = rit == reports_->nondet.end() ? kNoNondet
                                                                           : rit->second;
  auto cit = nondet_cursors_.find(rid);
  if (cit == nondet_cursors_.end()) {
    return R::Error("nondet: rid " + std::to_string(rid) + " is not in the trace");
  }
  NondetCursor& cursor = cit->second;
  if (cursor.pos >= records.size()) {
    return R::Error("nondet: rid " + std::to_string(rid) + " has no recorded value for call #" +
                    std::to_string(cursor.pos + 1));
  }
  const NondetRecord& record = records[cursor.pos];
  cursor.pos++;
  if (record.name != req.name) {
    return R::Error("nondet: recorded builtin '" + record.name + "' but program called '" +
                    req.name + "'");
  }
  Result<Value> parsed = DeserializeValue(record.value);
  if (!parsed.ok()) {
    return R::Error("nondet: " + parsed.error());
  }
  Value v = std::move(parsed).value();
  // Plausibility checks (§4.6): time and microtime must be monotone within the request;
  // rand must respect its range.
  if (req.name == "time") {
    if (!v.is_int() || (cursor.has_last_time && v.as_int() < cursor.last_time)) {
      return R::Error("nondet: time() value implausible for rid " + std::to_string(rid));
    }
    cursor.has_last_time = true;
    cursor.last_time = v.as_int();
  } else if (req.name == "microtime") {
    if (!v.is_float() || (cursor.has_last_micro && v.as_float() < cursor.last_micro)) {
      return R::Error("nondet: microtime() value implausible for rid " + std::to_string(rid));
    }
    cursor.has_last_micro = true;
    cursor.last_micro = v.as_float();
  } else if (req.name == "rand") {
    int64_t lo = req.args.size() > 0 ? req.args[0].ToInt() : 0;
    int64_t hi = req.args.size() > 1 ? req.args[1].ToInt() : 0;
    if (!v.is_int() || (hi >= lo && (v.as_int() < lo || v.as_int() > hi))) {
      return R::Error("nondet: rand() value out of range for rid " + std::to_string(rid));
    }
  }
  return v;
}

Status AuditContext::CheckNondetConsumed(RequestId rid) {
  auto rit = reports_->nondet.find(rid);
  size_t total = rit == reports_->nondet.end() ? 0 : rit->second.size();
  auto cit = nondet_cursors_.find(rid);
  size_t used = cit == nondet_cursors_.end() ? 0 : cit->second.pos;
  if (used != total) {
    return Status::Error("nondet: rid " + std::to_string(rid) + " consumed " +
                         std::to_string(used) + " of " + std::to_string(total) +
                         " recorded values");
  }
  return Status::Ok();
}

size_t AuditContext::ResponseIndex(RequestId rid) const {
  auto it = outputs_.find(rid);
  return it == outputs_.end() ? SIZE_MAX : it->second.response;
}

bool AuditContext::CheckOutput(RequestId rid, const std::string& output) {
  auto it = outputs_.find(rid);
  if (it == outputs_.end()) {
    return false;  // Callers only pass traced rids (slots pre-built in Prepare).
  }
  OutputSlot& slot = it->second;
  const bool matched = trace_->events[slot.response].body == output;
  slot.verdict = matched ? OutputVerdict::kMatched : OutputVerdict::kMismatched;
  return matched;
}

void AuditContext::MarkResponseLoadFailed(RequestId rid, Status error) {
  auto it = outputs_.find(rid);
  if (it != outputs_.end()) {
    it->second.verdict = OutputVerdict::kLoadFailed;
    it->second.load_error = std::move(error);
  }
}

void AuditContext::MarkOutputMatched(RequestId rid) {
  auto it = outputs_.find(rid);
  if (it != outputs_.end()) {
    it->second.verdict = OutputVerdict::kMatched;
  }
}

Status AuditContext::CompareOutputs(bool* load_failed) const {
  for (const TraceEvent& e : trace_->events) {
    if (e.kind != TraceEvent::Kind::kResponse) {
      continue;
    }
    auto it = outputs_.find(e.rid);
    const OutputVerdict verdict =
        it == outputs_.end() ? OutputVerdict::kUnchecked : it->second.verdict;
    switch (verdict) {
      case OutputVerdict::kMatched:
        continue;
      case OutputVerdict::kUnchecked:
        return Status::Error("output: rid " + std::to_string(e.rid) +
                             " was never re-executed");
      case OutputVerdict::kMismatched:
        return Status::Error("output: rid " + std::to_string(e.rid) +
                             " response does not match re-execution");
      case OutputVerdict::kLoadFailed:
        if (load_failed != nullptr) {
          *load_failed = true;
        }
        return it->second.load_error;
    }
  }
  return Status::Ok();
}

InitialState AuditContext::ExtractFinalState() const {
  InitialState out;
  // Registers: the last logged write per register object, else the initial value.
  out.registers = initial_->registers;
  for (size_t i = 0; i < reports_->objects.size(); i++) {
    if (reports_->objects[i].kind != ObjectKind::kRegister || register_writes_[i].empty()) {
      continue;
    }
    out.registers[reports_->objects[i].name] = register_writes_[i].back().second;
  }
  out.kv = versioned_kv_.LatestSnapshot();
  out.db = versioned_db_.LatestState();
  return out;
}

}  // namespace orochi
