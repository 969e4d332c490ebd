#include "src/common/io_env.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/hash.h"
#include "src/obs/metrics.h"

namespace orochi {

namespace {

// File-layer instruments (see README "Observability"). Function-local statics keep the
// registry lookup off the hot path.
obs::Counter* IoFsyncs() {
  static obs::Counter* const c = obs::MetricsRegistry::Default()->GetCounter(
      "orochi_io_fsyncs_total", "fsync calls issued by writers (spills, checkpoints)");
  return c;
}
obs::Counter* IoWriteBytes() {
  static obs::Counter* const c = obs::MetricsRegistry::Default()->GetCounter(
      "orochi_io_write_bytes_total", "bytes written through the Env file layer");
  return c;
}
obs::Counter* IoReadBytes() {
  static obs::Counter* const c = obs::MetricsRegistry::Default()->GetCounter(
      "orochi_io_read_bytes_total", "bytes read through ReadUpToAt/ReadFullAt");
  return c;
}
obs::Counter* IoReadRetries() {
  static obs::Counter* const c = obs::MetricsRegistry::Default()->GetCounter(
      "orochi_io_read_transient_retries_total",
      "transient read errors absorbed by the bounded-backoff retry loop");
  return c;
}
obs::Counter* IoReadsRecovered() {
  static obs::Counter* const c = obs::MetricsRegistry::Default()->GetCounter(
      "orochi_io_reads_recovered_total",
      "reads that completed only after one or more transient-error retries");
  return c;
}

// Bounded exponential backoff for transient errors: 4 attempts, 50us base doubling.
constexpr int kMaxIoAttempts = 4;
constexpr int kBackoffBaseMicros = 50;

std::string ErrnoDetail(const std::string& what, const std::string& path) {
  return "io: " + what + " " + path + ": " + std::string(::strerror(errno));
}

// --- POSIX files ---

class PosixReadableFile : public ReadableFile {
 public:
  PosixReadableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixReadableFile() override { ::close(fd_); }

  Result<size_t> PReadSome(uint64_t offset, size_t n, char* buf) override {
    while (true) {
      ssize_t got = ::pread(fd_, buf, n, static_cast<off_t>(offset));
      if (got >= 0) {
        return static_cast<size_t>(got);
      }
      if (errno == EINTR) {
        continue;
      }
      return Result<size_t>::Error(ErrnoDetail("read failed for", path_));
    }
  }

 private:
  int fd_;
  std::string path_;
};

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {
    buffer_.reserve(kBufferBytes);
  }
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      (void)FlushBuffer();
      ::close(fd_);
    }
  }

  Status Append(const char* data, size_t n) override {
    if (fd_ < 0) {
      return Status::Error("io: write to closed file " + path_);
    }
    if (buffer_.size() + n > kBufferBytes) {
      if (Status st = FlushBuffer(); !st.ok()) {
        return st;
      }
    }
    if (n > kBufferBytes) {
      return WriteRaw(data, n);
    }
    buffer_.append(data, n);
    return Status::Ok();
  }

  Status Sync() override {
    if (fd_ < 0) {
      return Status::Error("io: sync on closed file " + path_);
    }
    if (Status st = FlushBuffer(); !st.ok()) {
      return st;
    }
    if (::fsync(fd_) != 0) {
      return Status::Error(ErrnoDetail("fsync failed for", path_));
    }
    IoFsyncs()->Inc();
    return Status::Ok();
  }

  Status Close() override {
    if (fd_ < 0) {
      return Status::Ok();
    }
    Status st = FlushBuffer();
    int rc = ::close(fd_);
    fd_ = -1;
    if (!st.ok()) {
      return st;
    }
    if (rc != 0) {
      return Status::Error(ErrnoDetail("close failed for", path_));
    }
    return Status::Ok();
  }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;

  Status FlushBuffer() {
    if (buffer_.empty()) {
      return Status::Ok();
    }
    Status st = WriteRaw(buffer_.data(), buffer_.size());
    buffer_.clear();
    return st;
  }

  Status WriteRaw(const char* data, size_t n) {
    size_t done = 0;
    while (done < n) {
      ssize_t wrote = ::write(fd_, data + done, n - done);
      if (wrote < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::Error(ErrnoDetail("write failed for", path_));
      }
      done += static_cast<size_t>(wrote);
    }
    IoWriteBytes()->Inc(n);
    return Status::Ok();
  }

  int fd_;
  std::string path_;
  std::string buffer_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<ReadableFile>> OpenRead(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::Error(ErrnoDetail("cannot open", path)).At(path);
    }
    return std::unique_ptr<ReadableFile>(new PosixReadableFile(fd, path));
  }

  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path) override {
    return OpenForWrite(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC);
  }

  Result<std::unique_ptr<WritableFile>> OpenAppend(const std::string& path) override {
    return OpenForWrite(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Error(ErrnoDetail("rename failed for", from + " -> " + to));
    }
    return Status::Ok();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Error(ErrnoDetail("remove failed for", path));
    }
    return Status::Ok();
  }

  Result<bool> FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

 private:
  Result<std::unique_ptr<WritableFile>> OpenForWrite(const std::string& path, int flags) {
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Result<std::unique_ptr<WritableFile>>::Error(
          ErrnoDetail("cannot create", path));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

namespace {

// The base Env's StartReadAt services the read inline, so Wait() just reports what
// already happened. The seam is the point: all chunk-loader reads flow through it, so an
// env with a real submission queue overlaps them without touching the loaders.
class CompletedRead : public PendingRead {
 public:
  explicit CompletedRead(Status st) : st_(std::move(st)) {}
  Status Wait() override { return st_; }

 private:
  const Status st_;
};

}  // namespace

std::unique_ptr<PendingRead> Env::StartReadAt(ReadableFile* file, const std::string& path,
                                              uint64_t offset, size_t n, char* buf) {
  return std::make_unique<CompletedRead>(ReadFullAt(file, path, offset, n, buf));
}

Result<size_t> ReadUpToAt(ReadableFile* file, const std::string& path, uint64_t offset,
                          size_t n, char* buf) {
  size_t done = 0;
  int attempts = 0;
  while (done < n) {
    Result<size_t> got = file->PReadSome(offset + done, n - done, buf + done);
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kTransient && ++attempts < kMaxIoAttempts) {
        IoReadRetries()->Inc();
        std::this_thread::sleep_for(
            std::chrono::microseconds(kBackoffBaseMicros << attempts));
        continue;
      }
      return got.status().At(path, offset + done);
    }
    if (got.value() == 0) {
      break;  // EOF.
    }
    done += got.value();
  }
  if (attempts > 0) {
    IoReadsRecovered()->Inc();
  }
  IoReadBytes()->Inc(done);
  return done;
}

Status ReadFullAt(ReadableFile* file, const std::string& path, uint64_t offset, size_t n,
                  char* buf) {
  Result<size_t> got = ReadUpToAt(file, path, offset, n, buf);
  if (!got.ok()) {
    return got.status();
  }
  if (got.value() < n) {
    return Status::Error("io: unexpected end of file at offset " +
                         std::to_string(offset + got.value()) + " in " + path)
        .At(path, offset + got.value());
  }
  return Status::Ok();
}

// --- AtomicFileWriter ---

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

Status AtomicFileWriter::Open(Env* env, const std::string& path) {
  if (file_ != nullptr) {
    return Status::Error("io: AtomicFileWriter already open");
  }
  env_ = ResolveEnv(env);
  path_ = path;
  tmp_path_ = path + ".tmp";
  Result<std::unique_ptr<WritableFile>> f = env_->OpenWrite(tmp_path_);
  if (!f.ok()) {
    return f.status();
  }
  file_ = std::move(f).value();
  committed_ = false;
  return Status::Ok();
}

Status AtomicFileWriter::Commit() {
  if (file_ == nullptr) {
    return Status::Error("io: AtomicFileWriter is not open");
  }
  Status st = file_->Sync();
  Status close_st = file_->Close();
  file_.reset();
  if (!st.ok()) {
    (void)env_->Remove(tmp_path_);
    return st;
  }
  if (!close_st.ok()) {
    (void)env_->Remove(tmp_path_);
    return close_st;
  }
  if (Status rn = env_->Rename(tmp_path_, path_); !rn.ok()) {
    (void)env_->Remove(tmp_path_);
    return rn;
  }
  committed_ = true;
  return Status::Ok();
}

void AtomicFileWriter::Abandon() {
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  if (!committed_ && env_ != nullptr && !tmp_path_.empty()) {
    (void)env_->Remove(tmp_path_);
  }
}

// --- FaultInjectingEnv ---

// Named (not anonymous-namespace) classes: FaultInjectingEnv befriends them by name.
class FaultReadableFile : public ReadableFile {
 public:
  FaultReadableFile(FaultInjectingEnv* env, std::unique_ptr<ReadableFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Result<size_t> PReadSome(uint64_t offset, size_t n, char* buf) override;

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<ReadableFile> base_;
  std::string path_;
};

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingEnv* env, std::unique_ptr<WritableFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(const char* data, size_t n) override;
  Status Sync() override;
  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

double FaultInjectingEnv::Draw() {
  uint64_t index = op_index_.fetch_add(1);
  uint64_t bits = Mix64(options_.seed ^ Mix64(index + 0x517cc1b727220a95ull));
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);  // 53-bit mantissa.
}

int FaultInjectingEnv::WriteOpState() {
  write_ops_.fetch_add(1);
  int64_t before = remaining_writes_.fetch_sub(1);
  if (before <= 0) {
    remaining_writes_.fetch_add(1);  // Pin at "crashed" without underflow drift.
    return 2;
  }
  return before == 1 ? 1 : 0;
}

Result<size_t> FaultReadableFile::PReadSome(uint64_t offset, size_t n, char* buf) {
  env_->read_ops_.fetch_add(1);
  double d = env_->Draw();
  const FaultOptions& o = env_->options_;
  if (d < o.p_read_transient) {
    env_->CountFault();
    return Status::Error(StatusCode::kTransient,
                         "injected transient read error at offset " +
                             std::to_string(offset) + " in " + path_);
  }
  d -= o.p_read_transient;
  if (d < o.p_read_error) {
    env_->CountFault();
    return Result<size_t>::Error("io: injected read error (EIO) at offset " +
                                 std::to_string(offset) + " in " + path_);
  }
  d -= o.p_read_error;
  if (d < o.p_short_read && n > 1) {
    env_->CountFault();
    n = std::max<size_t>(1, n / 2);  // A strict prefix, but always progress.
  }
  return base_->PReadSome(offset, n, buf);
}

Status FaultWritableFile::Append(const char* data, size_t n) {
  switch (env_->WriteOpState()) {
    case 1: {  // Crash point: a torn prefix of this append lands, then silence.
      env_->CountFault();
      (void)base_->Append(data, n / 2);
      (void)base_->Sync();
      return Status::Error("io: crashed during append to " + path_);
    }
    case 2:
      return Status::Error("io: crashed (no further writes) for " + path_);
    default:
      break;
  }
  if (env_->Draw() < env_->options_.p_append_error) {
    env_->CountFault();
    return Status::Error("io: injected append failure (ENOSPC) for " + path_);
  }
  return base_->Append(data, n);
}

Status FaultWritableFile::Sync() {
  switch (env_->WriteOpState()) {
    case 1:
      env_->CountFault();
      return Status::Error("io: crashed during sync of " + path_);
    case 2:
      return Status::Error("io: crashed (no further writes) for " + path_);
    default:
      break;
  }
  if (env_->Draw() < env_->options_.p_sync_error) {
    env_->CountFault();
    return Status::Error("io: injected fsync failure for " + path_);
  }
  return base_->Sync();
}

Result<std::unique_ptr<ReadableFile>> FaultInjectingEnv::OpenRead(
    const std::string& path) {
  Result<std::unique_ptr<ReadableFile>> base = base_->OpenRead(path);
  if (!base.ok()) {
    return base;
  }
  return std::unique_ptr<ReadableFile>(
      new FaultReadableFile(this, std::move(base).value(), path));
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::OpenWrite(
    const std::string& path) {
  if (crashed()) {
    return Result<std::unique_ptr<WritableFile>>::Error(
        "io: crashed (no further writes) for " + path);
  }
  Result<std::unique_ptr<WritableFile>> base = base_->OpenWrite(path);
  if (!base.ok()) {
    return base;
  }
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, std::move(base).value(), path));
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::OpenAppend(
    const std::string& path) {
  if (crashed()) {
    return Result<std::unique_ptr<WritableFile>>::Error(
        "io: crashed (no further writes) for " + path);
  }
  Result<std::unique_ptr<WritableFile>> base = base_->OpenAppend(path);
  if (!base.ok()) {
    return base;
  }
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, std::move(base).value(), path));
}

Status FaultInjectingEnv::Rename(const std::string& from, const std::string& to) {
  switch (WriteOpState()) {
    case 1:  // Crash at the rename boundary: all-or-nothing, so nothing happens.
      CountFault();
      return Status::Error("io: crashed before rename of " + from);
    case 2:
      return Status::Error("io: crashed (no further writes) for " + from);
    default:
      break;
  }
  if (Draw() < options_.p_rename_error) {
    CountFault();
    return Status::Error("io: injected rename failure for " + from + " -> " + to);
  }
  return base_->Rename(from, to);
}

Status FaultInjectingEnv::Remove(const std::string& path) {
  if (crashed()) {
    return Status::Error("io: crashed (no further writes) for " + path);
  }
  return base_->Remove(path);
}

Result<bool> FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

}  // namespace orochi
