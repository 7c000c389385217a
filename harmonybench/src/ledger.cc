#include "ledger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace harmonybench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Ledger() : table_(new std::atomic<Slot*>[kMaxChunks]) {
  for (size_t i = 0; i < kMaxChunks; i++) {
    table_[i].store(nullptr, std::memory_order_relaxed);
  }
}

Slot* Ledger::Issue(uint64_t* seq) {
  const uint64_t n = issued_.load(std::memory_order_relaxed);
  const size_t chunk = n >> kChunkBits;
  if (chunk >= kMaxChunks) {
    std::fprintf(stderr, "ledger: more than %zu txns on one client\n",
                 kMaxChunks * kChunk);
    std::abort();
  }
  if ((n & (kChunk - 1)) == 0) {
    owned_.emplace_back(new Slot[kChunk]);
    table_[chunk].store(owned_.back().get(), std::memory_order_release);
  }
  // Publishing the seq after its chunk lets a resolving thread that sees
  // the seq as issued also see the chunk.
  issued_.store(n + 1, std::memory_order_release);
  *seq = n + 1;
  return &at(n + 1);
}

bool Ledger::Resolve(const harmony::TxnReceipt& r, int64_t now_ns) {
  const uint64_t seq = r.client_seq;
  if (seq == 0 || seq > issued()) {
    anomalies_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Slot& s = at(seq);
  if (s.receipts.fetch_add(1, std::memory_order_acq_rel) != 0) {
    anomalies_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.recv_ns.store(now_ns, std::memory_order_relaxed);
  s.outcome.store(static_cast<uint8_t>(r.outcome) + 1,
                  std::memory_order_release);
  return true;
}

uint64_t Ledger::CountUnresolved() {
  uint64_t bad = 0;
  const uint64_t n = issued();
  for (uint64_t seq = 1; seq <= n; seq++) {
    if (at(seq).receipts.load(std::memory_order_acquire) != 1) bad++;
  }
  return bad;
}

uint32_t SpanLog::NameIdLocked(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); i++) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint64_t SpanLog::Begin(std::string_view name, uint64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({NameIdLocked(name), parent, /*txn=*/0, now, 0});
  return spans_.size();
}

void SpanLog::End(uint64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanLog::Add(std::string_view name, uint64_t parent, uint64_t txn,
                      int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({NameIdLocked(name), parent, txn, start_ns, end_ns});
  return spans_.size();
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

harmony::Status SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return harmony::Status::IOError("cannot write " + path);
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "id\tparent\tname\ttxn\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%llu\t%s\t%llu\t%lld\t%lld\n", i + 1,
                 static_cast<unsigned long long>(s.parent),
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.txn),
                 static_cast<long long>(s.start_ns - epoch_ns_),
                 static_cast<long long>(s.end_ns - epoch_ns_));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? harmony::Status::OK()
            : harmony::Status::IOError("short write to " + path);
}

}  // namespace harmonybench
