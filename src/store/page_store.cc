#include "store/page_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pieces {

PageStore::PageStore(std::string path, const Options& opts)
    : opts_(opts), path_(std::move(path)), zero_page_(opts.page_size, 0) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = "PageStore: cannot open '" + path_ +
             "': " + std::strerror(errno);
  }
}

PageStore::~PageStore() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (opts_.unlink_on_close) ::unlink(path_.c_str());
  }
}

uint32_t PageStore::AllocatePage() {
  CheckPowered();
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = num_pages_.load(std::memory_order_relaxed);
  if (n >= opts_.max_pages) return kInvalidPage;
  // Extend the file now so the allocated extent survives a crash the way
  // a file's length does; the new page's content reads as zeros.
  if (::ftruncate(fd_, static_cast<off_t>((n + 1) * opts_.page_size)) != 0) {
    return kInvalidPage;
  }
  num_pages_.store(n + 1, std::memory_order_relaxed);
  written_.push_back(false);
  return static_cast<uint32_t>(n);
}

void PageStore::ReadPage(uint32_t page, uint8_t* out) const {
  CheckPowered();
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(opts_.page_size);
  std::lock_guard<std::mutex> lock(mu_);
  ssize_t got = ::pread(fd_, out, opts_.page_size, off);
  if (got < 0) got = 0;
  // Sparse/short tails read as zeros, like never-written PMem.
  if (static_cast<size_t>(got) < opts_.page_size) {
    std::memset(out + got, 0, opts_.page_size - static_cast<size_t>(got));
  }
  pages_read_.fetch_add(1, std::memory_order_relaxed);
}

void PageStore::PwriteOrDie(uint32_t page, const uint8_t* data) {
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(opts_.page_size);
  size_t done = 0;
  while (done < opts_.page_size) {
    ssize_t n = ::pwrite(fd_, data + done, opts_.page_size - done,
                         off + static_cast<off_t>(done));
    if (n <= 0) return;  // ENOSPC etc.; the sync barrier cannot fix this
    done += static_cast<size_t>(n);
  }
}

void PageStore::WritePage(uint32_t page, const uint8_t* data) {
  CheckPowered();
  std::lock_guard<std::mutex> lock(mu_);
  // First write to this page since the last barrier: capture its durable
  // image (the file content is durable here — everything pending is in
  // shadow_ already, and this page is not). A never-written page's image
  // is all zeros; record the empty marker instead of copying it.
  if (shadow_.find(page) == shadow_.end()) {
    std::vector<uint8_t> durable;
    if (page >= written_.size() || written_[page]) {
      durable.resize(opts_.page_size);
      const off_t off = static_cast<off_t>(page) *
                        static_cast<off_t>(opts_.page_size);
      ssize_t got = ::pread(fd_, durable.data(), opts_.page_size, off);
      if (got < 0) got = 0;
      if (static_cast<size_t>(got) < opts_.page_size) {
        std::memset(durable.data() + got, 0,
                    opts_.page_size - static_cast<size_t>(got));
      }
    } else {
      written_[page] = true;
    }
    shadow_.emplace(page, std::move(durable));
    pending_order_.push_back(page);
  }
  PwriteOrDie(page, data);
  pages_written_.fetch_add(1, std::memory_order_relaxed);
}

void PageStore::FailAfterSyncs(uint64_t n, int64_t tear_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  tear_bytes_ = tear_bytes;
  syncs_until_crash_.store(static_cast<int64_t>(n),
                           std::memory_order_relaxed);
}

void PageStore::RestorePendingLocked() {
  for (uint32_t page : pending_order_) {
    auto it = shadow_.find(page);
    if (it != shadow_.end()) PwriteOrDie(page, DurableImage(it->second));
  }
  pending_order_.clear();
  shadow_.clear();
}

void PageStore::Sync() {
  CheckPowered();
  std::lock_guard<std::mutex> lock(mu_);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  if (syncs_until_crash_.load(std::memory_order_relaxed) > 0 &&
      syncs_until_crash_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    // The armed barrier fails mid-flush: pending page writes commit in
    // first-write order until the torn budget runs out; the boundary page
    // keeps a strict prefix of its new bytes, everything later rolls
    // back. Then power is lost.
    int64_t budget = tear_bytes_ == kNoTear ? 0 : tear_bytes_;
    for (uint32_t page : pending_order_) {
      auto it = shadow_.find(page);
      if (it == shadow_.end()) continue;
      const int64_t psize = static_cast<int64_t>(opts_.page_size);
      if (budget >= psize) {
        // Whole page durable: keep the new content on disk.
        budget -= psize;
      } else if (budget > 0) {
        // Torn: first `budget` new bytes survive, the rest roll back.
        std::vector<uint8_t> merged(opts_.page_size);
        const off_t off = static_cast<off_t>(page) * psize;
        ssize_t got = ::pread(fd_, merged.data(), opts_.page_size, off);
        if (got < 0) got = 0;
        if (static_cast<size_t>(got) < opts_.page_size) {
          std::memset(merged.data() + got, 0,
                      opts_.page_size - static_cast<size_t>(got));
        }
        std::memcpy(merged.data() + budget,
                    DurableImage(it->second) + budget,
                    opts_.page_size - static_cast<size_t>(budget));
        PwriteOrDie(page, merged.data());
        budget = 0;
      } else {
        PwriteOrDie(page, DurableImage(it->second));
      }
    }
    pending_order_.clear();
    shadow_.clear();
    crashed_.store(true, std::memory_order_relaxed);
    throw SimulatedCrash{};
  }
  const uint64_t delay = sync_delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  ::fdatasync(fd_);
  // Everything written so far is now durable; drop the rollback images.
  pending_order_.clear();
  shadow_.clear();
}

void PageStore::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  RestorePendingLocked();
  crashed_.store(true, std::memory_order_relaxed);
}

}  // namespace pieces
