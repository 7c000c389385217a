#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/trace_clock.h"

namespace harmony {

class TxnContext;

/// Arguments carried by a transaction request. Procedures interpret the ints
/// positionally (account ids, amounts, item ids, ...).
struct ProcArgs {
  std::vector<int64_t> ints;
  std::string blob;

  int64_t at(size_t i) const { return i < ints.size() ? ints[i] : 0; }
};

/// A stored procedure / smart contract body. Returns:
///  - OK        -> transaction wants to commit;
///  - Aborted   -> deterministic *logic* abort (e.g. insufficient balance);
///                 distinct from concurrency-control aborts;
///  - other     -> internal error, surfaces to the caller.
///
/// Procedures may branch on run-time query results (that is precisely why
/// HarmonyBC needs an optimistic DCC instead of static analysis).
using ProcedureFn = std::function<Status(TxnContext&, const ProcArgs&)>;

/// Registry mapping procedure ids to bodies. Replicas of one chain must
/// register identical procedures (the "deployed smart contracts").
class ProcedureRegistry {
 public:
  void Register(uint32_t proc_id, std::string name, ProcedureFn fn) {
    procs_[proc_id] = Entry{std::move(name), std::move(fn)};
  }

  const ProcedureFn* Find(uint32_t proc_id) const {
    auto it = procs_.find(proc_id);
    return it == procs_.end() ? nullptr : &it->second.fn;
  }

  const std::string* Name(uint32_t proc_id) const {
    auto it = procs_.find(proc_id);
    return it == procs_.end() ? nullptr : &it->second.name;
  }

  size_t size() const { return procs_.size(); }

 private:
  struct Entry {
    std::string name;
    ProcedureFn fn;
  };
  std::unordered_map<uint32_t, Entry> procs_;
};

/// A client transaction as shipped through the ordering service (OE ships
/// commands, not read-write sets).
struct TxnRequest {
  uint32_t proc_id = 0;
  ProcArgs args;
  uint64_t client_id = 0;      ///< submitting client; dedup key half 1
  uint64_t client_seq = 0;     ///< client-assigned id; dedup key half 2
  // Ingress metadata, in-process only like `trace`: neither the canonical
  // txn bytes, the block log nor the wire carry it, and a decoded txn
  // leaves it zeroed. Only the leader reads it, before sealing (mempool
  // deadline, admission, receipt latency) and on a CC abort (requeue,
  // receipts).
  uint64_t submit_time_us = 0; ///< set when the client hands it to ordering
  uint32_t retries = 0;        ///< times this txn was CC-aborted and requeued
  /// Lifecycle stamps for txn tracing (docs/OBSERVABILITY.md).
  obs::TraceClock trace;
};

}  // namespace harmony
