// bank_audit: a banking ledger driven by concurrent teller *sessions* —
// every teller learns the authoritative fate of each of its transfers from
// per-transaction receipts — with a regulator's audit on top: the
// money-conservation invariant under hot-spot contention, receipt totals
// reconciled against replica state, deterministic re-execution (recovery)
// reaching the identical state, and tamper detection on the persisted
// chain.
//
//   ./build/bank_audit [dir]
//
// `dir` must be empty or absent; without it the example wipes and reuses
// a directory under the system temp dir.
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/harmonybc.h"

using namespace harmony;

namespace {

constexpr int kAccounts = 500;
constexpr int64_t kOpeningBalance = 1000;
constexpr int kTellers = 4;
constexpr int kTransfersPerTeller = 500;

Status Transfer(TxnContext& ctx, const ProcArgs& args) {
  const Key from = static_cast<Key>(args.at(0));
  const Key to = static_cast<Key>(args.at(1));
  const int64_t amount = args.at(2);
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(from, &src));
  if (src.field(0) < amount) return Status::Aborted("insufficient funds");
  ctx.AddField(from, 0, -amount);
  ctx.AddField(to, 0, amount);
  return Status::OK();
}

struct TellerReport {
  uint64_t committed = 0;
  uint64_t logic_aborted = 0;
  uint64_t dropped = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else {
    dir = (std::filesystem::temp_directory_path() / "harmonybc-bank").string();
    std::filesystem::remove_all(dir);
  }
  std::filesystem::create_directories(dir);

  HarmonyBC::Options opt;
  opt.dir = dir;
  opt.protocol = DccKind::kHarmony;
  opt.disk = DiskModel::RamDisk();
  opt.threads = 8;
  opt.block_size = 20;
  opt.max_block_delay_us = 2'000;

  auto db = HarmonyBC::Open(opt);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  for (Key k = 0; k < kAccounts; k++) {
    if (!(*db)->Load(k, Value({kOpeningBalance})).ok()) return 1;
  }
  if (!(*db)->Recover().ok()) return 1;

  // Four branch-office tellers, each with its own session, hammering a
  // hot-spot region (branch offices share popular accounts) concurrently.
  // Each teller waits for its receipts: the per-transaction verdicts are
  // what the branch's own books are reconciled from.
  std::vector<TellerReport> reports(kTellers);
  std::vector<std::thread> tellers;
  for (int w = 0; w < kTellers; w++) {
    tellers.emplace_back([&, w] {
      auto session = (*db)->OpenSession();
      Rng rng(1234 + w);
      std::vector<TxnTicket> tickets;
      for (int i = 0; i < kTransfersPerTeller; i++) {
        TxnRequest t;
        t.proc_id = 1;
        // 90% of traffic hits the first 25 accounts: heavy contention.
        const bool hot = rng.UniformRange(0, 9) != 0;
        const int64_t lo = 0, hi = hot ? 24 : kAccounts - 1;
        const int64_t from = rng.UniformRange(lo, hi);
        int64_t to = rng.UniformRange(lo, hi);
        if (to == from) to = (to + 1) % kAccounts;
        t.args.ints = {from, to, rng.UniformRange(1, 50)};
        TxnTicket ticket = session->Submit(std::move(t));
        if (auto r = ticket.TryGet();
            r.has_value() && r->outcome == ReceiptOutcome::kRejected) {
          std::this_thread::yield();  // Busy backpressure: resubmit
          i--;
          continue;
        }
        tickets.push_back(std::move(ticket));
      }
      for (const TxnTicket& ticket : tickets) {
        const TxnReceipt& r = ticket.Wait();
        switch (r.outcome) {
          case ReceiptOutcome::kCommitted:
            reports[w].committed++;
            break;
          case ReceiptOutcome::kLogicAborted:
            reports[w].logic_aborted++;
            break;
          default:
            reports[w].dropped++;
            break;
        }
      }
    });
  }
  for (auto& t : tellers) t.join();
  // A receipt resolves inside the commit callback, just before the replica
  // counts its block as committed: quiesce so the audits below read the
  // final tip.
  if (Status s = (*db)->Sync(); !s.ok()) {
    std::fprintf(stderr, "sync: %s\n", s.ToString().c_str());
    return 1;
  }

  TellerReport total;
  for (const TellerReport& r : reports) {
    total.committed += r.committed;
    total.logic_aborted += r.logic_aborted;
    total.dropped += r.dropped;
  }
  std::printf(
      "tellers: %d x %d transfers -> %llu committed, %llu logic-aborted, "
      "%llu dropped (receipts)\n",
      kTellers, kTransfersPerTeller,
      static_cast<unsigned long long>(total.committed),
      static_cast<unsigned long long>(total.logic_aborted),
      static_cast<unsigned long long>(total.dropped));

  // Audit 1: money conservation — every committed receipt moved funds
  // between accounts, nothing minted or burned.
  int64_t sum = 0;
  for (Key k = 0; k < kAccounts; k++) {
    std::optional<Value> v;
    if (!(*db)->Query(k, &v).ok() || !v.has_value()) return 1;
    sum += v->field(0);
  }
  if (sum != kAccounts * kOpeningBalance) {
    std::fprintf(stderr, "CONSERVATION VIOLATION: total %lld\n",
                 static_cast<long long>(sum));
    return 1;
  }
  std::printf("audit 1: money conserved (%lld coins)\n",
              static_cast<long long>(sum));

  // Audit 2: receipt totals match the replica's protocol counters.
  const ProtocolStats& ps = (*db)->stats();
  if (ps.committed.load() != total.committed ||
      ps.logic_aborted.load() != total.logic_aborted) {
    std::fprintf(stderr,
                 "RECEIPT MISMATCH: receipts %llu/%llu vs replica %llu/%llu\n",
                 static_cast<unsigned long long>(total.committed),
                 static_cast<unsigned long long>(total.logic_aborted),
                 static_cast<unsigned long long>(ps.committed.load()),
                 static_cast<unsigned long long>(ps.logic_aborted.load()));
    return 1;
  }
  std::printf("audit 2: receipts reconcile with replica commit counters\n");

  // Audit 3: deterministic re-execution. Reopen the chain directory and
  // recover: replaying the persisted blocks must reproduce the identical
  // state digest, coordination-free — the replica-consistency property.
  auto digest = (*db)->StateDigest();
  if (!digest.ok()) return 1;
  const BlockId tip = (*db)->height();
  db->reset();  // close (dirty state beyond the last checkpoint is dropped)
  {
    auto db2 = HarmonyBC::Open(opt);
    if (!db2.ok()) return 1;
    (*db2)->RegisterProcedure(1, "transfer", Transfer);
    auto recovered = (*db2)->Recover();
    if (!recovered.ok() || *recovered != tip) {
      std::fprintf(stderr, "recovery reached height %llu, expected %llu\n",
                   recovered.ok() ? static_cast<unsigned long long>(*recovered)
                                  : 0ULL,
                   static_cast<unsigned long long>(tip));
      return 1;
    }
    auto digest2 = (*db2)->StateDigest();
    if (!digest2.ok() || DigestToHex(*digest2) != DigestToHex(*digest)) {
      std::fprintf(stderr, "REPLAY DIVERGENCE: digests differ\n");
      return 1;
    }
    std::printf(
        "audit 3: independent re-execution reproduced state %.16s...\n",
        DigestToHex(*digest).c_str());

    // Audit 4: chain integrity on the persisted ledger.
    if (Status s = (*db2)->AuditChain(); !s.ok()) {
      std::fprintf(stderr, "chain audit failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("audit 4: hash chain + orderer signatures verify\n");

    // Audit 5: tamper with the on-disk ledger, then re-audit (on the open
    // handle — a fresh Open would discard the damaged suffix as a torn
    // tail). Flip one byte in the middle of the chain file: the audit must
    // catch it.
    const std::string chain_file = dir + "/replica.chain";
    {
      FILE* f = std::fopen(chain_file.c_str(), "r+b");
      if (f == nullptr) return 1;
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, size / 2, SEEK_SET);
      int c = std::fgetc(f);
      std::fseek(f, size / 2, SEEK_SET);
      std::fputc(c ^ 0x01, f);
      std::fclose(f);
    }
    Status tampered = (*db2)->AuditChain();
    if (tampered.ok()) {
      std::fprintf(stderr, "tampering was NOT detected!\n");
      return 1;
    }
    std::printf("audit 5: tampering detected as expected (%s)\n",
                tampered.ToString().c_str());
  }
  return 0;
}
