// Pluggable I/O environment for every spill-file read and write in the audit
// pipeline. Production code goes through Env::Default() (POSIX files); tests swap in
// FaultInjectingEnv to replay a deterministic schedule of EIO / short-read / ENOSPC /
// crash-point faults, so the fault-tolerance claims are provable instead of aspirational.
//
// Error taxonomy, by StatusCode (the verdict must never conflate these):
//   - kTransient: worth retrying; ReadFullAt absorbs these with bounded exponential
//     backoff.
//   - kError / kCorruption: permanent I/O errors (truncation, ENOSPC, crash; bytes that
//     fail their checksum) — surfaced to the caller as an I/O failure, never as a tamper
//     rejection. A failed read is located at its {file, offset}.
#ifndef SRC_COMMON_IO_ENV_H_
#define SRC_COMMON_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/result.h"

namespace orochi {

class ReadableFile {
 public:
  virtual ~ReadableFile() = default;

  // One best-effort positional read of up to `n` bytes into `buf`. Returns the count
  // actually read; 0 means end-of-file. May return fewer than `n` before EOF — callers
  // loop (or use ReadFullAt, which also retries transient errors).
  virtual Result<size_t> PReadSome(uint64_t offset, size_t n, char* buf) = 0;
};

class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const char* data, size_t n) = 0;
  Status Append(const std::string& data) { return Append(data.data(), data.size()); }
  // Durably flushes everything appended so far (fsync).
  virtual Status Sync() = 0;
  // Flushes buffers and closes. Idempotent; the destructor closes without reporting.
  virtual Status Close() = 0;
};

// Handle for an in-flight StartReadAt. Wait() blocks until the read completes and
// returns its status — exactly ReadFullAt's contract: all `n` bytes or an error naming
// file and offset, transient faults already retried with bounded backoff.
class PendingRead {
 public:
  virtual ~PendingRead() = default;
  virtual Status Wait() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<ReadableFile>> OpenRead(const std::string& path) = 0;

  // Begins reading exactly `n` bytes of `file` at `offset` into `buf` (`path` labels
  // errors); `buf` must stay valid until Wait() returns. The base implementation
  // services the read inline on the calling pass-2 worker, and a wrapping
  // FaultInjectingEnv's schedule fires at the same deterministic operation index because
  // the read still goes through the file handle the env handed out. An env with a real
  // submission queue can override this to overlap reads.
  virtual std::unique_ptr<PendingRead> StartReadAt(ReadableFile* file,
                                                   const std::string& path,
                                                   uint64_t offset, size_t n, char* buf);
  // Creates (or truncates) `path` for writing.
  virtual Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path) = 0;
  // Opens `path` for appending, creating it if absent.
  virtual Result<std::unique_ptr<WritableFile>> OpenAppend(const std::string& path) = 0;
  // Atomically replaces `to` with `from` (rename(2) semantics: all-or-nothing).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Result<bool> FileExists(const std::string& path) = 0;

  // The production POSIX environment; a process-lifetime singleton.
  static Env* Default();
};

// nullptr resolves to Env::Default() — every Env-threaded API takes an optional Env*.
inline Env* ResolveEnv(Env* env) { return env != nullptr ? env : Env::Default(); }

// --- exact reads with transient-retry ---

// Reads up to `n` bytes at `offset`, looping over short reads and retrying transient
// errors with bounded exponential backoff. Returns the byte count read; < n only when
// EOF intervened. A read error keeps its code and is located at `path` and its offset.
Result<size_t> ReadUpToAt(ReadableFile* file, const std::string& path, uint64_t offset,
                          size_t n, char* buf);

// Reads exactly `n` bytes at `offset` or errors (EOF before `n` bytes names the file and
// offset). Transient errors are retried like ReadUpToAt.
Status ReadFullAt(ReadableFile* file, const std::string& path, uint64_t offset, size_t n,
                  char* buf);

// --- crash-safe writes: temp + fsync + rename ---

// Writes `path + ".tmp"`, then Commit() = Sync + Close + Rename into place. A reader of
// `path` therefore only ever observes the previous complete file or the new complete
// file, never a torn prefix. Abandoning (destruction without Commit) closes and removes
// the temp file.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status Open(Env* env, const std::string& path);
  // Valid between a successful Open and Commit.
  WritableFile* file() { return file_.get(); }
  Status Commit();

 private:
  void Abandon();

  Env* env_ = nullptr;
  std::string path_;
  std::string tmp_path_;
  std::unique_ptr<WritableFile> file_;
  bool committed_ = false;
};

// --- deterministic fault injection ---

struct FaultOptions {
  uint64_t seed = 1;
  // Per-operation fault probabilities (at most one fault fires per operation).
  double p_read_transient = 0;  // Retryable EIO on a read.
  double p_read_error = 0;      // Permanent EIO on a read.
  double p_short_read = 0;      // Read returns a strict prefix (caller must loop).
  double p_append_error = 0;    // ENOSPC-style append failure.
  double p_sync_error = 0;      // fsync failure.
  double p_rename_error = 0;    // rename failure (no replacement happens).
  // Crash point: this many write-side operations (appends, syncs, renames) complete,
  // then the next append is torn (a prefix of its bytes lands) and every write-side
  // operation after that fails — modeling a process killed mid-spill.
  static constexpr uint64_t kNeverCrash = UINT64_MAX;
  uint64_t crash_after_writes = kNeverCrash;
};

// Wraps a base Env, injecting faults from a schedule fully determined by
// (seed, operation index). The operation index is a global atomic, so a single-threaded
// run replays exactly; multi-threaded runs stay schedule-deterministic per interleaving.
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv(Env* base, FaultOptions options)
      : base_(ResolveEnv(base)), options_(options) {
    remaining_writes_.store(options.crash_after_writes == FaultOptions::kNeverCrash
                                ? INT64_MAX
                                : static_cast<int64_t>(options.crash_after_writes) + 1);
  }

  Result<std::unique_ptr<ReadableFile>> OpenRead(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppend(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Result<bool> FileExists(const std::string& path) override;

  // Write-side operations observed (appends + syncs + renames), for kill-point sweeps:
  // run once fault-free to learn the op count N, then re-run with
  // crash_after_writes = 0..N-1 to cover every crash point.
  uint64_t write_ops() const { return write_ops_.load(); }
  uint64_t read_ops() const { return read_ops_.load(); }
  uint64_t faults_injected() const { return faults_injected_.load(); }
  bool crashed() const { return remaining_writes_.load() <= 0; }

 private:
  friend class FaultReadableFile;
  friend class FaultWritableFile;

  // Draws one uniform [0,1) double for the next operation in the schedule.
  double Draw();
  // Consumes one write-op slot. Returns: 0 = proceed, 1 = this op is the crash point
  // (tear it), 2 = already crashed (fail).
  int WriteOpState();
  void CountFault() { faults_injected_.fetch_add(1); }

  Env* base_;
  FaultOptions options_;
  std::atomic<uint64_t> op_index_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<int64_t> remaining_writes_{INT64_MAX};
};

}  // namespace orochi

#endif  // SRC_COMMON_IO_ENV_H_
