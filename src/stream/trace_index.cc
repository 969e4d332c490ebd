#include "src/stream/trace_index.h"

#include <utility>

#include "src/objects/wire_format.h"

namespace orochi {

Result<uint32_t> StreamTraceSet::AppendFile(const std::string& path, Env* env) {
  TraceReader reader;
  if (Status st = reader.Open(path, env); !st.ok()) {
    return st;
  }
  const uint32_t file = static_cast<uint32_t>(files_.size());
  files_.push_back(path);
  while (true) {
    TraceEvent event;
    Result<bool> more = reader.Next(&event, TraceDecode::kSkeleton);
    if (!more.ok()) {
      return more.status();
    }
    if (!more.value()) {
      break;
    }
    TraceEventLoc loc;
    loc.file = file;
    loc.record_type = reader.last_record_type();
    loc.offset = reader.last_payload_offset();
    loc.bytes = reader.last_payload_bytes();
    loc.crc = reader.last_payload_crc();
    if (event.kind == TraceEvent::Kind::kRequest) {
      request_index_.emplace(event.rid, locs_.size());
      total_request_payload_bytes_ += loc.bytes;
    }
    locs_.push_back(loc);
    skeleton_.events.push_back(std::move(event));
  }
  return reader.shard_id();
}

void StreamTraceSet::Absorb(StreamTraceSet&& other) {
  const uint32_t file_base = static_cast<uint32_t>(files_.size());
  const size_t event_base = locs_.size();
  for (std::string& path : other.files_) {
    files_.push_back(std::move(path));
  }
  locs_.reserve(locs_.size() + other.locs_.size());
  for (TraceEventLoc loc : other.locs_) {
    loc.file += file_base;
    locs_.push_back(loc);
  }
  skeleton_.events.reserve(skeleton_.events.size() + other.skeleton_.events.size());
  for (TraceEvent& event : other.skeleton_.events) {
    skeleton_.events.push_back(std::move(event));
  }
  for (const auto& [rid, index] : other.request_index_) {
    // First occurrence wins across the whole merged set, same as sequential AppendFile.
    request_index_.emplace(rid, event_base + index);
  }
  total_request_payload_bytes_ += other.total_request_payload_bytes_;
  other = StreamTraceSet();
}

size_t StreamTraceSet::RequestIndex(RequestId rid) const {
  auto it = request_index_.find(rid);
  return it == request_index_.end() ? SIZE_MAX : it->second;
}

}  // namespace orochi
