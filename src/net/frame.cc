#include "src/net/frame.h"

#include <cstring>

#include "src/common/crc32c.h"
#include "src/objects/wire_format.h"
#include "src/objects/wire_primitives.h"

namespace orochi {
namespace net {

namespace {

using wire_primitives::Cursor;
using wire_primitives::MakeCursor;
using wire_primitives::PutStr;
using wire_primitives::PutU32;
using wire_primitives::PutU64;
using wire_primitives::PutU8;

template <typename T>
Result<T> Malformed(const char* what) {
  return Result<T>::Error(std::string("net: malformed ") + what + " frame");
}

}  // namespace

std::string EncodeHello(const HelloFrame& f) {
  std::string out;
  PutU32(&out, kProtocolMagic);
  PutU32(&out, f.format_version);
  PutU32(&out, f.shard_id);
  PutU64(&out, f.epoch);
  return out;
}

Result<HelloFrame> DecodeHello(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  uint32_t magic = 0;
  HelloFrame f;
  if (!c.TakeU32(&magic) || !c.TakeU32(&f.format_version) || !c.TakeU32(&f.shard_id) ||
      !c.TakeU64(&f.epoch) || !c.AtEnd()) {
    return Malformed<HelloFrame>("hello");
  }
  if (magic != kProtocolMagic) {
    return Result<HelloFrame>::Error("net: hello from a non-orochi peer (bad magic)");
  }
  return f;
}

std::string EncodeHelloAck(const HelloAckFrame& f) {
  std::string out;
  PutU64(&out, f.trace_received);
  PutU64(&out, f.reports_received);
  PutU8(&out, f.sealed);
  PutU64(&out, f.max_in_flight_bytes);
  PutU64(&out, f.ack_interval_records);
  return out;
}

Result<HelloAckFrame> DecodeHelloAck(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  HelloAckFrame f;
  if (!c.TakeU64(&f.trace_received) || !c.TakeU64(&f.reports_received) ||
      !c.TakeU8(&f.sealed) || !c.TakeU64(&f.max_in_flight_bytes) ||
      !c.TakeU64(&f.ack_interval_records) || !c.AtEnd()) {
    return Malformed<HelloAckFrame>("hello-ack");
  }
  return f;
}

std::string EncodeRecord(const RecordFrame& f) {
  std::string out;
  out.reserve(9 + f.payload.size());
  PutU64(&out, f.index);
  PutU8(&out, f.record_type);
  out.append(f.payload);
  return out;
}

Result<RecordFrame> DecodeRecord(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  RecordFrame f;
  if (!c.TakeU64(&f.index) || !c.TakeU8(&f.record_type)) {
    return Malformed<RecordFrame>("record");
  }
  f.payload.assign(payload, c.pos, payload.size() - c.pos);
  return f;
}

std::string EncodeEndEpoch(const EndEpochFrame& f) {
  std::string out;
  PutU64(&out, f.trace_records);
  PutU64(&out, f.reports_records);
  return out;
}

Result<EndEpochFrame> DecodeEndEpoch(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  EndEpochFrame f;
  if (!c.TakeU64(&f.trace_records) || !c.TakeU64(&f.reports_records) || !c.AtEnd()) {
    return Malformed<EndEpochFrame>("end-epoch");
  }
  return f;
}

std::string EncodeAck(const AckFrame& f) {
  std::string out;
  PutU64(&out, f.trace_received);
  PutU64(&out, f.reports_received);
  return out;
}

Result<AckFrame> DecodeAck(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  AckFrame f;
  if (!c.TakeU64(&f.trace_received) || !c.TakeU64(&f.reports_received) || !c.AtEnd()) {
    return Malformed<AckFrame>("ack");
  }
  return f;
}

std::string EncodeEpochSealed(const EpochSealedFrame& f) {
  std::string out;
  PutU64(&out, f.epoch);
  return out;
}

Result<EpochSealedFrame> DecodeEpochSealed(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  EpochSealedFrame f;
  if (!c.TakeU64(&f.epoch) || !c.AtEnd()) {
    return Malformed<EpochSealedFrame>("epoch-sealed");
  }
  return f;
}

std::string EncodeError(const ErrorFrame& f) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(f.code));
  PutStr(&out, f.message);
  return out;
}

Result<ErrorFrame> DecodeError(const std::string& payload) {
  Cursor c = MakeCursor(payload);
  uint8_t code = 0;
  ErrorFrame f;
  if (!c.TakeU8(&code) || !c.TakeStr(&f.message) || !c.AtEnd() || code < 1 || code > 3) {
    return Malformed<ErrorFrame>("error");
  }
  f.code = static_cast<ErrorCode>(code);
  return f;
}

Result<bool> FrameReader::Next(uint8_t* type, std::string* payload) {
  auto closed_mid_frame = [&] {
    return Status::Error(StatusCode::kTransient, "net: connection to " + conn_->peer() +
                                                     " closed mid-frame (short frame)");
  };
  // Read the fixed 13-byte frame first. A clean peer close is only legal here, before
  // any byte of a frame has arrived.
  char frame[wire::kRecordFrameBytesV2];
  size_t have = 0;
  while (have < sizeof(frame)) {
    Result<size_t> got = conn_->ReadSome(frame + have, sizeof(frame) - have);
    if (!got.ok()) {
      return got.status();
    }
    if (got.value() == 0) {
      if (have == 0) {
        return false;
      }
      return closed_mid_frame();
    }
    have += got.value();
  }
  uint64_t len = 0;
  uint32_t crc = 0;
  wire::ParseRecordFrameV2(frame, sizeof(frame), type, &len, &crc);
  if (len > kMaxFramePayloadBytes) {
    return Status::Error(StatusCode::kCorruption, "wire: oversized frame (" +
                                                      std::to_string(len) +
                                                      " bytes) from " + conn_->peer());
  }
  payload->resize(len);
  have = 0;
  while (have < len) {
    Result<size_t> got = conn_->ReadSome(&(*payload)[have], len - have);
    if (!got.ok()) {
      return got.status();
    }
    if (got.value() == 0) {
      return closed_mid_frame();
    }
    have += got.value();
  }
  if (Crc32c(*payload) != crc) {
    // Localized in-flight corruption: the frame is dropped here, never spooled; the
    // sender re-sends it after the resume handshake.
    return Status::Error(StatusCode::kCorruption,
                         "wire: frame crc mismatch (type " + std::to_string(*type) + ", " +
                             std::to_string(len) + " bytes) from " + conn_->peer());
  }
  frames_read_++;
  bytes_read_ += sizeof(frame) + len;
  return true;
}

Status FrameWriter::Send(uint8_t type, const std::string& payload) {
  scratch_.clear();
  wire::AppendRecordFrame(&scratch_, type, payload);
  if (Status st = conn_->WriteAll(scratch_); !st.ok()) {
    return st;
  }
  frames_sent_++;
  bytes_sent_ += scratch_.size();
  return Status::Ok();
}

}  // namespace net
}  // namespace orochi
