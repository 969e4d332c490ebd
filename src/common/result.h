// Lightweight expected-like result type used throughout the library instead of exceptions.
#ifndef SRC_COMMON_RESULT_H_
#define SRC_COMMON_RESULT_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

namespace orochi {

// What kind of failure an error is. Callers branch on the code, never on message text.
enum class StatusCode : uint8_t {
  kOk,
  kError,       // The default: a permanent failure (unreadable file, protocol violation).
  kConfig,      // A malformed knob or option: fix the verifier, not the input.
  kTransient,   // Retrying can succeed: a transient read error, a dropped connection.
  kCorruption,  // Bytes that fail their checksum or framing (a file or a network frame).
};

// OK, or an error: a code, a message, and optionally where it happened ({file, offset}).
// OK is a null pointer, so Status::Ok() never allocates.
class Status {
 public:
  static constexpr uint64_t kNoOffset = UINT64_MAX;

  Status() = default;
  Status(const Status& other) { *this = other; }
  Status& operator=(const Status& other) {
    rep_ = other.ok() ? nullptr : std::make_unique<Rep>(*other.rep_);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    return Error(StatusCode::kError, std::move(message));
  }
  static Status Error(StatusCode code, std::string message) {
    Status s;
    s.rep_ = std::make_unique<Rep>(Rep{code, std::move(message), {}, kNoOffset});
    return s;
  }

  // This error located in `file`, at byte `offset` when known.
  Status At(std::string file, uint64_t offset = kNoOffset) const {
    assert(!ok());
    Status s = *this;
    s.rep_->file = std::move(file);
    s.rep_->offset = offset;
    return s;
  }
  // This error with `context` prepended to its message; code and location are kept.
  Status Prefixed(const std::string& context) const {
    assert(!ok());
    Status s = *this;
    s.rep_->message.insert(0, context);
    return s;
  }

  bool ok() const { return rep_ == nullptr; }
  explicit operator bool() const { return ok(); }
  StatusCode code() const { return ok() ? StatusCode::kOk : rep_->code; }
  const std::string& error() const { return ok() ? Empty() : rep_->message; }
  // The location: empty / kNoOffset when the error has none.
  const std::string& file() const { return ok() ? Empty() : rep_->file; }
  uint64_t offset() const { return ok() ? kNoOffset : rep_->offset; }

 private:
  struct Rep { StatusCode code; std::string message; std::string file; uint64_t offset; };
  static const std::string& Empty() {
    static const std::string empty;
    return empty;
  }

  std::unique_ptr<Rep> rep_;
};

// Success costs one null pointer; the error record is allocated only when one happens.
static_assert(sizeof(Status) == sizeof(void*), "Status must stay one pointer");

// Result<T> carries either a value of type T or an error Status. The library avoids
// exceptions (per the style guide); fallible operations return Result and callers branch on
// ok(). An error forwards unchanged, code and location included: `return r.status();`.
template <typename T>
class Result {
 public:
  // Implicit construction from a value keeps call sites terse: `return parsed;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  // An error Result keeps the Status whole: code, message and location.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok());
  }

  static Result Error(std::string message) { return Status::Error(std::move(message)); }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const std::string& error() const {
    assert(!ok());
    return status_.error();
  }
  // OK when a value is held.
  const Status& status() const { return status_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace orochi

#endif  // SRC_COMMON_RESULT_H_
