#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <vector>

#include "common/clock.h"
#include "testing/fault.h"

namespace harmony {

DiskManager::DiskManager(std::string path, DiskModel model)
    : path_(std::move(path)), model_(model) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    open_errno_ = errno;
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) == 0) {
    next_page_.store(static_cast<PageId>(st.st_size / kPageSize));
  }
}

Status DiskManager::status() const {
  if (fd_ >= 0) return Status::OK();
  return Status::IOError("open page file " + path_ + ": " +
                         std::strerror(open_errno_));
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

DiskManager::IoSlots::IoSlots(DiskManager* dm, size_t want)
    : dm_(dm), count_(want) {
  const uint32_t qd = dm_->model_.queue_depth;
  if (qd == 0) return;  // RAMDisk: unlimited
  std::unique_lock<std::mutex> lk(dm_->io_mu_);
  dm_->io_cv_.wait(lk, [&] { return dm_->inflight_io_ < qd; });
  count_ = std::min<size_t>(want, qd - dm_->inflight_io_);
  dm_->inflight_io_ += static_cast<uint32_t>(count_);
}

DiskManager::IoSlots::~IoSlots() {
  if (dm_->model_.queue_depth == 0) return;
  {
    std::lock_guard<std::mutex> lk(dm_->io_mu_);
    dm_->inflight_io_ -= static_cast<uint32_t>(count_);
  }
  if (count_ == 1) {
    dm_->io_cv_.notify_one();
  } else {
    dm_->io_cv_.notify_all();
  }
}

Status DiskManager::ReadPage(PageId page_id, Page* out) {
  IoSlots slot(this, 1);
  if (model_.fault != nullptr) {
    HARMONY_RETURN_NOT_OK(model_.fault->OnRead());
  }
  SimulateDelayMicros(model_.read_latency_us);
  HARMONY_RETURN_NOT_OK(ReadPageRaw(page_id, out));
  stats_.page_reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::ReadPageRaw(PageId page_id, Page* out) {
  const off_t off = static_cast<off_t>(page_id) * kPageSize;
  ssize_t n = ::pread(fd_, out->data, kPageSize, off);
  if (n < 0) return Status::IOError(std::strerror(errno));
  if (n < static_cast<ssize_t>(kPageSize)) {
    // Page allocated but never written: treat as zeroed.
    std::memset(out->data + n, 0, kPageSize - static_cast<size_t>(n));
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const Page& page) {
  const Page* p = &page;
  return WritePages(page_id, &p, 1);
}

Status DiskManager::WritePages(PageId first, const Page* const* pages,
                               size_t n) {
  const WriteAdmission adm = AdmitWrites(n);
  HARMONY_RETURN_NOT_OK(
      WriteAdmitted(first, pages, adm.pages * kPageSize + adm.prefix));
  return adm.status;
}

DiskManager::WriteAdmission DiskManager::AdmitWrites(size_t n) {
  // A short-write fault still persists a prefix of its page, modelling
  // power-loss-like torn sectors for the journal to repair.
  WriteAdmission out;
  while (out.pages < n && out.status.ok()) {
    IoSlots wave(this, n - out.pages);
    size_t admitted = wave.count();
    if (model_.fault != nullptr) {
      for (admitted = 0; admitted < wave.count(); admitted++) {
        out.status = model_.fault->OnWrite(kPageSize, &out.prefix);
        if (!out.status.ok()) break;
      }
    }
    if (admitted > 0) SimulateDelayMicros(model_.write_latency_us);
    out.pages += admitted;
  }
  return out;
}

Status DiskManager::WriteAdmitted(PageId first, const Page* const* pages,
                                  size_t bytes) {
  const off_t base = static_cast<off_t>(first) * kPageSize;
  std::vector<iovec> iov;
  iov.reserve(std::min<size_t>(bytes / kPageSize + 1, IOV_MAX));
  for (size_t done = 0; done < bytes;) {
    iov.clear();
    for (size_t at = done; at < bytes && iov.size() < IOV_MAX;) {
      const size_t in_page = at % kPageSize;
      const size_t len = std::min(kPageSize - in_page, bytes - at);
      iov.push_back(iovec{const_cast<char*>(pages[at / kPageSize]->data) +
                              in_page,
                          len});
      at += len;
    }
    const ssize_t w = ::pwritev(fd_, iov.data(), static_cast<int>(iov.size()),
                                base + static_cast<off_t>(done));
    if (w <= 0) return Status::IOError(std::strerror(w < 0 ? errno : EIO));
    done += static_cast<size_t>(w);
  }
  stats_.page_writes.fetch_add(bytes / kPageSize, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::Sync() {
  if (model_.fault != nullptr) {
    HARMONY_RETURN_NOT_OK(model_.fault->OnSync());
  }
  // Modelled flush only: the simulation never hard-kills the process, and a
  // host fsync would charge the host device's latency, not the model's.
  SimulateDelayMicros(model_.fsync_latency_us);
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

PageId DiskManager::AllocatePage() { return next_page_.fetch_add(1); }

Result<PageId> DiskManager::FilePages() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::IOError(std::strerror(errno));
  return static_cast<PageId>(st.st_size / kPageSize);
}

Status DiskManager::Truncate(PageId pages) {
  if (::ftruncate(fd_, static_cast<off_t>(pages) * kPageSize) != 0) {
    return Status::IOError("truncate " + path_ + ": " + std::strerror(errno));
  }
  next_page_.store(pages);
  return Status::OK();
}

}  // namespace harmony
