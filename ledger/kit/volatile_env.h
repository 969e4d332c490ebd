// The I/O environment the ledger's spill and spool writers use: the production POSIX
// environment in every respect except that WritableFile::Sync only counts the call. The
// spill directory lives inside the benchmark's checkout, on whatever disk that is; with
// fsync skipped it behaves like tmpfs, so a shared disk's flush latency (erratic, and tens
// of milliseconds on a virtual disk) never enters a measurement of the program's own work.
// Reads are untouched: written data is in the page cache either way.
#ifndef LEDGER_KIT_VOLATILE_ENV_H_
#define LEDGER_KIT_VOLATILE_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/io_env.h"

namespace orochi {
namespace ledger {

class VolatileEnv : public Env {
 public:
  Result<std::unique_ptr<ReadableFile>> OpenRead(const std::string& path) override {
    return base_->OpenRead(path);
  }
  std::unique_ptr<PendingRead> StartReadAt(ReadableFile* file, const std::string& path,
                                           uint64_t offset, size_t n, char* buf) override {
    return base_->StartReadAt(file, path, offset, n, buf);
  }
  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path) override {
    return Wrap(base_->OpenWrite(path));
  }
  Result<std::unique_ptr<WritableFile>> OpenAppend(const std::string& path) override {
    return Wrap(base_->OpenAppend(path));
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override { return base_->Remove(path); }
  Result<bool> FileExists(const std::string& path) override { return base_->FileExists(path); }

  // Sync calls the program issued (none reached the disk).
  uint64_t syncs() const { return syncs_.load(); }

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> inner, std::atomic<uint64_t>* syncs)
        : inner_(std::move(inner)), syncs_(syncs) {}
    Status Append(const char* data, size_t n) override { return inner_->Append(data, n); }
    Status Sync() override {
      syncs_->fetch_add(1);
      return Status::Ok();
    }
    Status Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<WritableFile> inner_;
    std::atomic<uint64_t>* const syncs_;
  };

  Result<std::unique_ptr<WritableFile>> Wrap(Result<std::unique_ptr<WritableFile>> opened) {
    if (!opened.ok()) {
      return opened;
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<File>(std::move(opened).value(), &syncs_));
  }

  Env* const base_ = Env::Default();
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace ledger
}  // namespace orochi

#endif  // LEDGER_KIT_VOLATILE_ENV_H_
