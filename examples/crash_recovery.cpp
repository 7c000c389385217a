// crash_recovery: demonstrates HarmonyBC's logical-logging recovery. A node
// processes blocks, "crashes" without flushing (losing everything after the
// last checkpoint from DRAM), restarts, and deterministically re-executes
// the logged blocks to the exact pre-crash state.
//
//   ./build/crash_recovery [dir]
//
// `dir` must be empty or absent; without it the example wipes and reuses
// a directory under the system temp dir.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/harmonybc.h"

using namespace harmony;

namespace {

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

/// Admission rejections resolve a ticket synchronously.
bool Rejected(const TxnTicket& t) {
  std::optional<TxnReceipt> r = t.TryGet();
  return r && r->outcome == ReceiptOutcome::kRejected;
}

HarmonyBC::Options Opts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.block_size = 5;
  o.checkpoint_every = 4;  // checkpoint every 4 blocks
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else {
    dir = (std::filesystem::temp_directory_path() / "harmonybc-crash").string();
    std::filesystem::remove_all(dir);
  }
  std::filesystem::create_directories(dir);

  Digest pre_crash;
  BlockId pre_height = 0;
  {
    auto db = HarmonyBC::Open(Opts(dir));
    if (!db.ok()) return 1;
    (*db)->RegisterProcedure(1, "incr", Increment);
    for (Key k = 0; k < 8; k++) {
      if (!(*db)->Load(k, Value({0})).ok()) return 1;
    }
    if (!(*db)->Recover().ok()) return 1;

    auto session = (*db)->OpenSession();
    for (int i = 0; i < 55; i++) {
      TxnRequest t;
      t.proc_id = 1;
      t.args.ints = {i % 8, 1};
      if (Rejected(session->Submit(std::move(t)))) return 1;
    }
    if (!(*db)->Sync().ok()) return 1;
    pre_height = (*db)->height();
    auto d = (*db)->StateDigest();
    if (!d.ok()) return 1;
    pre_crash = *d;
    std::printf("pre-crash:  height=%llu state=%s...\n",
                static_cast<unsigned long long>(pre_height),
                DigestToHex(pre_crash).substr(0, 16).c_str());
    // <-- destructor without a final checkpoint: dirty pages are dropped,
    // exactly what a power failure would do to DRAM.
    std::printf("crash!      (dirty pages beyond the last checkpoint lost)\n");
  }

  {
    auto db = HarmonyBC::Open(Opts(dir));
    if (!db.ok()) return 1;
    (*db)->RegisterProcedure(1, "incr", Increment);
    // No genesis loading on restart: state comes from checkpoint + replay.
    auto tip = (*db)->Recover();
    if (!tip.ok()) {
      std::fprintf(stderr, "recover: %s\n", tip.status().ToString().c_str());
      return 1;
    }
    auto d = (*db)->StateDigest();
    if (!d.ok()) return 1;
    std::printf("recovered:  height=%llu state=%s...\n",
                static_cast<unsigned long long>(*tip),
                DigestToHex(*d).substr(0, 16).c_str());

    const bool ok = (*tip == pre_height) && (*d == pre_crash);
    std::printf("deterministic replay: %s\n",
                ok ? "state identical to pre-crash" : "MISMATCH");
    if (!ok) return 1;

    // And the node keeps working: extend the chain after recovery.
    TxnRequest t;
    t.proc_id = 1;
    t.args.ints = {0, 100};
    if (Rejected((*db)->OpenSession()->Submit(std::move(t))) ||
        !(*db)->Sync().ok()) {
      return 1;
    }
    std::optional<Value> v;
    if (!(*db)->Query(0, &v).ok() || !v.has_value()) return 1;
    std::printf("post-recovery txn committed: key0=%lld, height=%llu\n",
                static_cast<long long>(v->field(0)),
                static_cast<unsigned long long>((*db)->height()));
    return (*db)->AuditChain().ok() ? 0 : 1;
  }
}
