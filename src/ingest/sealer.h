#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "chain/block.h"
#include "common/status.h"
#include "ingest/admission.h"
#include "ingest/mempool.h"

namespace harmony {

class Orderer;

namespace obs {
class TxnTracer;
}

/// Sealing policy.
struct SealerOptions {
  size_t block_size = 25;  ///< seal as soon as this many txns are pending
  /// Seal a *partial* block once the oldest pending transaction has waited
  /// this long (latency bound under light load). 0 disables the deadline:
  /// blocks seal only when full or on Flush().
  uint64_t max_block_delay_us = 0;
};

/// Background block producer: drains the mempool into the orderer and feeds
/// sealed blocks to a delivery sink (Replica::SubmitBlock) as a pipeline —
/// block n+1 is cut and hashed while block n is still simulating/committing
/// downstream.
///
/// Blocks are cut on *size or deadline, whichever first*:
///  - size:     mempool depth reaches block_size (Notify() wakes the thread);
///  - deadline: the oldest pending txn is max_block_delay_us old;
///  - flush:    Flush() seals everything buffered right now (Sync path).
///
/// Each cut drains the retry lane first, then the fresh rings (see
/// Mempool::TakeBatch and docs/INGEST.md).
///
/// SealBlock + delivery happen under one mutex, so block ids stay dense and
/// in order no matter which thread (sealer or a Flush caller) cuts a block.
/// That mutex is also what makes the sealer the mempool's *single logical
/// consumer*: the lock-free shard rings allow exactly one drainer at a
/// time, and every TakeBatch here runs under seal_mu_.
/// A delivery failure parks the error; subsequent Flush() calls report it.
class BlockSealer {
 public:
  using DeliverFn = std::function<Status(Block)>;

  /// `tracer` (optional) enables txn-lifecycle tracing: each TakeBatch
  /// stamps the taken txns' dequeue clocks, records their queue-wait
  /// histogram entries, and records the seal duration per block.
  BlockSealer(SealerOptions opts, Mempool* pool, Orderer* orderer,
              IngestStats* stats, DeliverFn deliver,
              obs::TxnTracer* tracer = nullptr);
  ~BlockSealer();

  BlockSealer(const BlockSealer&) = delete;
  BlockSealer& operator=(const BlockSealer&) = delete;

  /// Starts the background thread. Without Start() the sealer is passive:
  /// only Flush() cuts blocks (serial drivers, unit tests).
  void Start();

  /// Stops and joins the background thread. Buffered transactions stay in
  /// the mempool; call Flush() first to seal them.
  void Stop();

  /// Wakes the sealer; call after Mempool::Add/AddRetry. Cheap on the
  /// common path: one fence + atomic load; the mutex is touched only when
  /// the sealer thread is actually parked.
  void Notify();

  /// Seals every buffered transaction (retries included) into blocks now,
  /// delivering each. Returns the first delivery error, if any — including
  /// one previously hit by the background thread.
  Status Flush();

  /// First delivery error seen by the background thread (OK if none).
  Status background_error() const;

  /// Blocks delivered so far. Acquires seal_mu_, so it also waits out any
  /// seal currently mid-delivery — an unchanged count across a
  /// Replica::Drain() proves the drain covered every delivered block (the
  /// Sync() quiescence handshake).
  uint64_t delivered();

 private:
  enum class SealCause { kSize, kDeadline, kFlush };

  /// Cuts one block of up to block_size txns; returns txns sealed.
  size_t SealOnce(SealCause cause);
  size_t SealLocked(SealCause cause);  ///< requires seal_mu_
  void Loop();

  SealerOptions opts_;
  Mempool* pool_;
  Orderer* orderer_;
  IngestStats* stats_;
  DeliverFn deliver_;
  obs::TxnTracer* tracer_;

  std::mutex seal_mu_;  ///< serializes SealBlock + delivery (block order)
  uint64_t delivered_ = 0;  ///< blocks handed to deliver_; under seal_mu_

  mutable std::mutex mu_;  ///< guards cv_/stop_/error_
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};  ///< thread is (about to be) in cv wait
  bool stop_ = true;
  Status error_;
  std::thread thread_;
};

}  // namespace harmony
