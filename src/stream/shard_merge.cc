#include "src/stream/shard_merge.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/work_steal_pool.h"
#include "src/objects/wire_format.h"
#include "src/obs/trace.h"

namespace orochi {

namespace {

// The stamped shard id of a trace spill file: streams at most one record (the shard-info
// header, when present, precedes every event). An empty or shard-info-only file is fine.
Result<uint32_t> PeekTraceShardId(const std::string& path, Env* env) {
  TraceReader reader;
  if (Status st = reader.Open(path, env); !st.ok()) {
    return st;
  }
  TraceEvent event;
  Result<bool> more = reader.Next(&event, TraceDecode::kSkeleton);
  if (!more.ok()) {
    return more.status();
  }
  return reader.shard_id();
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string Resolve(const std::string& dir, const std::string& file) {
  if (!file.empty() && file[0] == '/') {
    return file;
  }
  return dir + "/" + file;
}

}  // namespace

std::vector<ShardSkeletons> StreamShardSkeletons(const std::vector<ShardEpochFiles>& shards,
                                                 Env* env, size_t num_threads,
                                                 obs::PhaseBreakdown* phases) {
  std::vector<ShardSkeletons> out(shards.size());
  // Two tasks per pair: trace task 2i and reports task 2i + 1, so round-robin dealing
  // puts them on different workers and a pool of one reads the trace file first.
  std::vector<size_t> tasks(shards.size() * 2);
  for (size_t t = 0; t < tasks.size(); t++) {
    tasks[t] = t;
  }
  std::vector<obs::PhaseBreakdown> task_phases(tasks.size());
  WorkStealPool(std::min(num_threads, tasks.size())).Run(tasks, [&](size_t t) {
    obs::TraceSpan span(&task_phases[t], obs::Phase::kPass1Skeleton);
    const ShardEpochFiles& files = shards[t / 2];
    ShardSkeletons& pair = out[t / 2];
    if (t % 2 == 0) {
      Result<uint32_t> appended = pair.traces.AppendFile(files.trace_path, env);
      if (!appended.ok()) {
        pair.trace_error = appended.status();
        return;
      }
      pair.stamped_id = appended.value();
    } else {
      pair.reports_error = pair.reports.AppendFile(files.reports_path, env);
    }
  });
  for (const obs::PhaseBreakdown& p : task_phases) {
    phases->MergeFrom(p);
  }
  return out;
}

Result<MergedShards> MergeShards(const std::vector<ShardEpochFiles>& shards,
                                 const std::vector<uint32_t>& expected_ids, Env* env,
                                 size_t num_threads) {
  using R = Result<MergedShards>;
  if (shards.empty()) {
    return R::Error("shard merge: no shards given");
  }
  if (!expected_ids.empty() && expected_ids.size() != shards.size()) {
    return R::Error("shard merge: expected-id list does not match the shard list");
  }

  // Resolve each shard's effective id (stamped id, else the manifest's claim) and fix the
  // merge order: ascending id, argument position breaking ties. Sorting before any heavy
  // read keeps the merged epoch independent of the order the caller listed the files in.
  struct Entry {
    size_t pos;
    uint32_t id;
  };
  std::vector<Entry> order(shards.size());
  for (size_t i = 0; i < shards.size(); i++) {
    Result<uint32_t> stamped = PeekTraceShardId(shards[i].trace_path, env);
    if (!stamped.ok()) {
      return stamped.status().Prefixed("shard merge: ");
    }
    uint32_t id = stamped.value();
    if (!expected_ids.empty()) {
      if (id != 0 && expected_ids[i] != id) {
        return R::Error("shard merge: " + shards[i].trace_path + " is stamped shard " +
                        std::to_string(id) + " but the manifest claims shard " +
                        std::to_string(expected_ids[i]));
      }
      id = expected_ids[i];
    }
    order[i] = {i, id};
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Entry& a, const Entry& b) { return a.id < b.id; });
  for (size_t i = 1; i < order.size(); i++) {
    if (order[i].id != 0 && order[i].id == order[i - 1].id) {
      return R::Error("shard merge: shard id " + std::to_string(order[i].id) +
                      " appears twice");
    }
  }

  // Pass 1 in sorted merge order. Nothing is shared across the pool's tasks, and the
  // sequential fold below absorbs in merge order regardless of which task finished
  // first, so the merged epoch is the same at every thread count.
  std::vector<ShardEpochFiles> sorted;
  sorted.reserve(order.size());
  for (const Entry& e : order) {
    sorted.push_back(shards[e.pos]);
  }
  MergedShards out;
  std::vector<ShardSkeletons> loads =
      StreamShardSkeletons(sorted, env, num_threads, &out.phases);
  {
    // The sequential fold in merge order, timed as shard_merge.
    obs::TraceSpan span(&out.phases, obs::Phase::kShardMerge);
    std::unordered_set<RequestId> prior_rids;
    for (size_t i = 0; i < order.size(); i++) {
      const Entry& e = order[i];
      const ShardEpochFiles& shard = shards[e.pos];
      ShardSkeletons& load = loads[i];
      if (!load.error().ok()) {
        // Quarantine: name the shard and both of its files, so the operator knows exactly
        // which collector's spill to restore — the other shards streamed clean.
        return load.error().Prefixed("shard merge: quarantined shard " +
                                     std::to_string(e.id) + " (trace " + shard.trace_path +
                                     ", reports " + shard.reports_path + "): ");
      }
      // Rid-disjointness across shard traces. (Duplicates *within* one shard stay for the
      // audit's balanced-trace check to reject, exactly as the unsharded path would.)
      std::unordered_set<RequestId> shard_rids;
      for (const TraceEvent& event : load.traces.skeleton().events) {
        if (event.kind != TraceEvent::Kind::kRequest) {
          continue;
        }
        if (prior_rids.count(event.rid) > 0) {
          return R::Error("shard merge: rid " + std::to_string(event.rid) +
                          " appears in more than one shard's trace");
        }
        shard_rids.insert(event.rid);
      }
      prior_rids.insert(shard_rids.begin(), shard_rids.end());
      out.traces.Absorb(std::move(load.traces));

      // Merge errors (rid overlap with an earlier shard's reports) come back
      // "path: reason" from the index itself, same as the sequential stream would report.
      if (Status st = out.reports.Absorb(std::move(load.reports), shard.reports_path);
          !st.ok()) {
        return st.Prefixed("shard merge: ");
      }
      out.shard_ids.push_back(e.id);
    }
  }
  return out;
}

Result<MergedShards> MergeShardsFromManifest(const std::string& manifest_path, Env* env,
                                             size_t num_threads) {
  Result<ShardManifest> manifest = ReadShardManifestFile(manifest_path, env);
  if (!manifest.ok()) {
    return manifest.status();
  }
  const std::string dir = DirOf(manifest_path);
  std::vector<ShardEpochFiles> shards;
  std::vector<uint32_t> ids;
  shards.reserve(manifest.value().shards.size());
  for (const ShardManifestEntry& entry : manifest.value().shards) {
    shards.push_back({Resolve(dir, entry.trace_file), Resolve(dir, entry.reports_file)});
    ids.push_back(entry.shard_id);
  }
  return MergeShards(shards, ids, env, num_threads);
}

}  // namespace orochi
