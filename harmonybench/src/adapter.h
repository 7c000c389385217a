#pragma once

// The benchmark's workloads and the adapter that runs a paper Workload
// (src/workload/) through the HarmonyBC facade.
//
// Admission only accepts procedures registered through
// HarmonyBC::RegisterProcedure, but the paper workloads register their
// procedures on the Replica from inside Workload::Setup (their bodies are
// file-local). SetupWorkload bridges the two: it allows every procedure id
// the workload header declares with a placeholder body, then runs Setup,
// whose Replica::RegisterProcedure calls replace the placeholders.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/harmonybc.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace harmonybench {

enum class Mix { kSmallbank, kYcsb };

/// One named benchmark workload: the transaction mix, the system it runs
/// against (all of HarmonyBC::Options except `dir` and `enable_tracing`),
/// and the load shape. Every number here is configuration, fixed in the
/// source so that every commit is measured at the same point.
struct WorkloadSpec {
  std::string name;
  Mix mix = Mix::kSmallbank;
  harmony::SmallbankConfig smallbank;
  harmony::YcsbConfig ycsb;

  harmony::HarmonyBC::Options db;

  /// Wire + replication target: a leader (HarmonyBC + Replicator +
  /// NetServer) and cluster_size - 1 in-process followers, quorum-ack
  /// receipts, clients over loopback NetClients. Otherwise in-process
  /// sessions against a single HarmonyBC.
  bool cluster = false;
  size_t cluster_size = 3;
  size_t reactor_threads = 2;
  size_t net_batch_txns = 16;
  uint64_t net_batch_delay_us = 200;

  /// Closed loop: `clients` threads, each keeping up to `window` txns in
  /// flight (it refills once half the window has resolved).
  size_t clients = 2;
  size_t window = 256;
  /// Open loop: one generator at this fixed offered rate (txn/s).
  double offered_rate = 1000;
};

const std::vector<WorkloadSpec>& AllWorkloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// A transaction generator for `spec` whose stream is fixed by `seed`. The
/// genesis state it loads does not depend on the seed.
std::unique_ptr<harmony::Workload> MakeWorkload(const WorkloadSpec& spec,
                                                uint64_t seed);

/// Every procedure id the mix's Workload::Setup registers.
std::vector<uint32_t> ProcedureIds(Mix mix);

/// Registers placeholders for ProcedureIds(mix) on `db`, then runs
/// `workload->Setup` on its replica (real procedures + genesis rows).
harmony::Status SetupWorkload(harmony::HarmonyBC* db,
                              harmony::Workload* workload, Mix mix);

/// Stable 64-bit mix of a run seed and a stream index (per-client seeds).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

}  // namespace harmonybench
