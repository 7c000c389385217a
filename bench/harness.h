#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/orderer.h"
#include "workload/workload.h"

namespace harmony {
namespace bench {

/// Scales per-point transaction counts: HARMONY_BENCH_SCALE=2 doubles them,
/// 0.25 quarters them. Default 1.0 keeps the full suite at minutes.
double Scale();
size_t ScaledTxns(size_t base);

/// One system under test, as labelled in the paper's figures.
struct SystemSpec {
  std::string label;
  DccKind kind;
  DccConfig cfg;
  bool sov = false;  ///< ships read-write sets (network model differs)
};

SystemSpec HarmonySpec();
SystemSpec AriaSpec();
SystemSpec RbcSpec();
SystemSpec FabricSpec();
SystemSpec FastFabricSpec();
/// Figure 7/8 order: Fabric, FastFabric#, RBC, AriaBC, HarmonyBC.
std::vector<SystemSpec> AllSystems();
/// Relational systems only (TPC-C): RBC, AriaBC, HarmonyBC.
std::vector<SystemSpec> RelationalSystems();

struct BenchParams {
  SystemSpec system;
  size_t block_size = 25;
  size_t total_txns = 2000;
  /// Worker threads. Like PostgreSQL's process-per-transaction model, a
  /// worker blocked on (simulated) I/O holds no CPU, so the pool is sized
  /// above the core count to let a whole block overlap its I/O.
  size_t threads = 256;
  size_t pool_pages = 96;       ///< deliberately smaller than the hot set
  DiskModel disk = DiskModel::Ssd();
  bool in_memory = false;
  double bandwidth_gbps = 1.0;  ///< NICs of the modelled 4-node cluster
  bool false_abort_oracle = false;
};

/// A measured execution point as a client of a networked deployment sees
/// it: the ordering service caps throughput and adds block-delivery
/// latency on top of the execution figures.
struct EndToEnd {
  double tps = 0;
  double latency_ms = 0;
};

/// Places an execution point (`exec_tps`, `exec_latency_ms`) behind an
/// orderer with profile `prof` on network `net`. `sov_rwset_bytes` > 0
/// marks an SOV system: every transaction's signed read-write set is
/// broadcast to all `net.nodes` replicas (a second throughput ceiling) and
/// the client pays the endorsement round trip.
EndToEnd BehindOrderer(double exec_tps, double exec_latency_ms,
                       const ConsensusProfile& prof, const NetworkModel& net,
                       size_t sov_rwset_bytes);

/// What one (system, workload, parameters) point reports — the columns the
/// paper figures print.
struct RunReport {
  double exec_tps = 0;         ///< committed receipts / wall second
  double mean_latency_ms = 0;  ///< submit -> committed receipt
  double abort_rate = 0;       ///< cc aborts / simulated txns
  double false_abort_rate = 0;
  double dangerous_hit_rate = 0;
  double cpu_util = 0;         ///< process CPU / (wall * cores)
  /// Behind a Kafka orderer on the modelled 4-node cluster.
  EndToEnd end_to_end;
};

/// Runs one point through a single-node HarmonyBC: the workload's genesis
/// is loaded and checkpointed, then `total_txns` transactions are submitted
/// through one Session under a bounded in-flight window and the run ends at
/// Sync(). CC-aborted transactions retry inside HarmonyBC; a transaction
/// that exhausts its retries counts as not committed.
Result<RunReport> RunPoint(const BenchParams& params,
                           const std::function<std::unique_ptr<Workload>()>&
                               make_workload);

/// Formatted output helpers (every bench prints paper-style series).
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int prec = 1);

}  // namespace bench
}  // namespace harmony
