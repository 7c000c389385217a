// Crash-recovery torture (docs/TESTING.md): SIGKILL a child mid-workload at
// an injected crash point, then prove recovery is exact.
//
// Each schedule derives everything — the crash point, its hit count, the
// torn-write fraction, the workload — from CaseSeed(run_seed, k), so
//
//   torture --seed S --schedule K
//
// replays schedule K of a `--seed S` run byte-for-byte. The parent arms the
// crash point via the HARMONY_CRASH environment variable (src/testing/
// crash_point.h) in the child's environment only, forks+execs itself in
// child mode, and lets the child die wherever the schedule says. The child
// is hard-killed (SIGKILL, no destructors), but completed pwrites survive
// in the page cache — exactly the host-crash model the recovery design
// assumes (docs/FORMATS.md "Failure semantics").
//
// Verification is digest equality against an independent replay: the parent
// recovers the torn directory, then feeds the *recovered* chain to a fresh
// in-memory reference replica and requires both StateDigests to match, plus
// a full AuditChain. Any divergence — lost committed block, double-applied
// checkpoint gap, torn record accepted — fails the schedule and prints the
// repro line.
//
//   torture --schedules 200 --seed 1            # the CI smoke invocation
//   torture --seed 1 --schedule 137             # replay one schedule
//   torture --schedules 50 --seed 9 --keep      # keep the chain dirs
//   torture --truncate --schedules 100 --seed 2 # retention/truncation mode
//
// `--truncate` plans retention-enabled schedules instead: the child runs
// with log_retain_blocks set (archive on), so every checkpoint drives a
// TruncateBefore rewrite, and the crash points are biased toward the
// chain.truncate.* rename window. Verification reconstructs the *full*
// chain (archive + live log, deduped) for the reference replay; repl
// schedules delay the follower's join until the leader has truncated, so
// the join lands on the snapshot path.
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/block_store.h"
#include "core/harmonybc.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "replica/replica.h"
#include "testing/crash_point.h"
#include "testing/fuzz.h"
#include "txn/txn_context.h"
#include "txn/value.h"

namespace harmony {
namespace {

using testing::CaseSeed;
using testing::FuzzRng;

constexpr Key kAccounts = 16;
constexpr int64_t kInitialBalance = 1000;

// --------------------------------------------------------- shared pieces --

Status Transfer(TxnContext& ctx, const ProcArgs& a) {
  Value src;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
  if (src.field(0) < a.at(2)) return Status::Aborted("insufficient balance");
  ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
  ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
  return Status::OK();
}

Status Increment(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
  return Status::OK();
}

HarmonyBC::Options DbOpts(const std::string& dir) {
  HarmonyBC::Options o;
  o.dir = dir;
  o.disk = DiskModel::RamDisk();
  o.pool_pages = 128;
  o.threads = 2;
  o.block_size = 4;
  o.checkpoint_every = 3;     // checkpoint often: more windows to tear
  o.max_block_delay_us = 100; // seal sub-size tails quickly
  return o;
}

Result<std::unique_ptr<HarmonyBC>> BootDb(const std::string& dir,
                                          uint64_t retain = 0) {
  // Genesis rows are loaded only when no checkpoint exists yet: once a
  // checkpoint is durable the on-disk state *is* the genesis-plus-replay
  // baseline, and re-loading would overwrite checkpointed balances.
  const bool fresh = !CheckpointManifest(dir + "/replica.ckpt").Exists();
  HarmonyBC::Options o = DbOpts(dir);
  if (retain > 0) {
    o.log_retain_blocks = retain;
    o.archive_truncated = true;  // verification's full-chain ground truth
  }
  auto db = HarmonyBC::Open(o);
  HARMONY_RETURN_NOT_OK(db.status());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  (*db)->RegisterProcedure(2, "increment", Increment);
  if (fresh) {
    for (Key k = 0; k < kAccounts; k++) {
      HARMONY_RETURN_NOT_OK((*db)->Load(k, Value({kInitialBalance})));
    }
  }
  HARMONY_RETURN_NOT_OK((*db)->Recover().status());
  return db;
}

/// Follower half of a repl-mode schedule: follower-mode db on a
/// sub-directory, same genesis as the leader.
Result<std::unique_ptr<HarmonyBC>> BootFollowerDb(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const bool fresh = !CheckpointManifest(dir + "/replica.ckpt").Exists();
  HarmonyBC::Options o = DbOpts(dir);
  o.follower_mode = true;
  auto db = HarmonyBC::Open(o);
  HARMONY_RETURN_NOT_OK(db.status());
  (*db)->RegisterProcedure(1, "transfer", Transfer);
  (*db)->RegisterProcedure(2, "increment", Increment);
  if (fresh) {
    for (Key k = 0; k < kAccounts; k++) {
      HARMONY_RETURN_NOT_OK((*db)->Load(k, Value({kInitialBalance})));
    }
  }
  HARMONY_RETURN_NOT_OK((*db)->Recover().status());
  return db;
}

// ------------------------------------------------------------ child mode --

/// Runs the seeded workload until the armed crash point kills the process
/// (or to completion, when the schedule's point never fires — e.g. a
/// truncate point on a child without retention).
///
/// With `repl`, the child also runs a leader-side Replicator + NetServer
/// and an in-process follower on <dir>/follower, so the repl.* crash points
/// (leader-crash-mid-replicate, follower-crash-mid-apply/ack) are on the
/// execution path — the SIGKILL then tears down leader and follower at the
/// same instant, and the parent verifies both directories.
int RunChild(const std::string& dir, uint64_t wseed, uint64_t txns,
             bool repl, uint64_t retain) {
  auto db = BootDb(dir, retain);
  if (!db.ok()) {
    std::fprintf(stderr, "child boot: %s\n", db.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<repl::Replicator> replicator;
  std::unique_ptr<net::NetServer> server;
  Result<std::unique_ptr<HarmonyBC>> fdb{std::unique_ptr<HarmonyBC>()};
  std::unique_ptr<repl::Follower> follower;
  auto boot_follower = [&]() -> bool {
    fdb = BootFollowerDb(dir + "/follower");
    if (!fdb.ok()) {
      std::fprintf(stderr, "child follower boot: %s\n",
                   fdb.status().ToString().c_str());
      return false;
    }
    repl::FollowerOptions fo;
    fo.node = "torture-follower";
    fo.leader_port = server->port();
    follower = std::make_unique<repl::Follower>(fdb->get(), fo);
    if (Status s = follower->Start(); !s.ok()) {
      std::fprintf(stderr, "child follower: %s\n", s.ToString().c_str());
      return false;
    }
    return true;
  };
  if (repl) {
    repl::ReplicatorOptions ro;
    ro.cluster_size = 2;
    ro.durability = repl::Durability::kLeaderOnly;  // workload never stalls
    replicator = std::make_unique<repl::Replicator>(db->get(), ro);
    replicator->Attach();
    net::NetServerOptions so;
    so.port = 0;
    so.reactor_threads = 1;
    server = std::make_unique<net::NetServer>(db->get(), so);
    server->SetReplicator(replicator.get());
    if (Status s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "child server: %s\n", s.ToString().c_str());
      return 1;
    }
    // Truncation schedules delay the join until the leader has committed
    // (and truncated) half the workload, so the joiner's catch-up lands on
    // the snapshot path, not a plain log stream.
    if (retain == 0 && !boot_follower()) return 1;
  }
  // One session per client id 1..4; the workload numbers client_seq itself.
  std::unique_ptr<Session> sessions[4];
  for (uint64_t c = 0; c < 4; c++) sessions[c] = (*db)->OpenSession(c + 1);
  Rng rng(wseed);
  for (uint64_t i = 0; i < txns; i++) {
    if (repl && retain > 0 && follower == nullptr && i == txns / 2) {
      if (Status s = (*db)->Sync(); !s.ok()) {
        std::fprintf(stderr, "child midpoint sync: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      if (!boot_follower()) return 1;
    }
    TxnRequest t;
    if (rng.Chance(0.7)) {
      t.proc_id = 2;  // increment
      t.args.ints = {static_cast<int64_t>(rng.Uniform(kAccounts)),
                     rng.UniformRange(1, 9)};
    } else {
      t.proc_id = 1;  // transfer (may deterministically abort)
      const int64_t from = static_cast<int64_t>(rng.Uniform(kAccounts));
      const int64_t to = static_cast<int64_t>(rng.Uniform(kAccounts));
      t.args.ints = {from, to, rng.UniformRange(1, 50)};
    }
    Session& session = *sessions[rng.Uniform(4)];
    t.client_seq = i + 1;
    // Admission rejections resolve synchronously.
    if (std::optional<TxnReceipt> r = session.Submit(std::move(t)).TryGet();
        r && r->outcome == ReceiptOutcome::kRejected) {
      std::fprintf(stderr, "child submit: %s\n", r->status.ToString().c_str());
      return 1;
    }
    if ((i + 1) % 16 == 0) {
      if (Status s = (*db)->Sync(); !s.ok()) {
        std::fprintf(stderr, "child sync: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  if (Status s = (*db)->Sync(); !s.ok()) {
    std::fprintf(stderr, "child final sync: %s\n", s.ToString().c_str());
    return 1;
  }
  if (repl) {
    // The schedule's point never fired; shut the pair down cleanly (the
    // follower keeps whatever prefix it reached — any prefix verifies).
    follower->Stop();
    replicator->Detach();
    (*db)->FailPendingReceipts(Status::Aborted("torture child exiting"));
    server->Stop();
  }
  return 0;
}

// ----------------------------------------------------------- parent mode --

std::string DigestHex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  for (uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

/// One schedule's crash plan, derived entirely from its seed.
struct Schedule {
  std::string point;
  uint64_t hit = 1;
  double frac = 1.0;     // torn-write prefix fraction
  bool torn = false;
  bool repl = false;     // run a leader+follower replication pair
  uint64_t retain = 0;   // >0: retention-enabled child (truncate mode)
  uint64_t wseed = 0;    // child workload seed
  uint64_t txns = 0;

  std::string EnvSpec() const {
    char buf[128];
    if (torn) {
      std::snprintf(buf, sizeof(buf), "%s:%" PRIu64 ":%.3f", point.c_str(),
                    hit, frac);
    } else {
      std::snprintf(buf, sizeof(buf), "%s:%" PRIu64, point.c_str(), hit);
    }
    return buf;
  }
};

Schedule PlanSchedule(uint64_t run_seed, uint64_t k, bool truncate_mode) {
  FuzzRng rng(CaseSeed(run_seed, k));
  Schedule s;
  s.wseed = rng.U64();
  if (truncate_mode) {
    // Retention-enabled child: every checkpoint past the retention horizon
    // rewrites the log, so the truncate rename window is on the hot path
    // many times per run. Longer workloads give several truncations.
    s.txns = rng.Range(64, 140);
    s.retain = 2 + rng.Index(4);  // keep 2..5 blocks
    if (rng.Chance(0.6)) {
      s.point = rng.Chance(0.5) ? "chain.truncate.before_rename"
                                : "chain.truncate.after_rename";
      s.hit = 1 + rng.Index(3);
    } else {
      // The rest draw from the whole catalogue so storage/chain/repl
      // crashes also land while retention is rewriting the log.
      s.point = testing::kCrashPointCatalogue[rng.Index(
          testing::kNumCrashPoints)];
      s.hit = 1 + rng.Index(10);
    }
    if (s.point == "chain.append.torn_write") {
      s.torn = true;
      s.frac = 0.05 + 0.9 * (static_cast<double>(rng.Index(1000)) / 1000.0);
    }
    // Truncate-then-follower-join: the child delays the join until the
    // leader has truncated, forcing the snapshot catch-up path.
    s.repl =
        std::strncmp(s.point.c_str(), "repl.", 5) == 0 || rng.Chance(0.35);
    return s;
  }
  s.txns = rng.Range(48, 120);
  s.point = testing::kCrashPointCatalogue[rng.Index(testing::kNumCrashPoints)];
  s.hit = 1 + rng.Index(10);
  if (s.point == "chain.append.torn_write") {
    s.torn = true;
    s.frac = 0.05 + 0.9 * (static_cast<double>(rng.Index(1000)) / 1000.0);
  }
  // Replication pair: mandatory when the point lives in src/repl/ (it is
  // unreachable otherwise), and sampled in for a fraction of the generic
  // points so storage/chain crashes also land mid-replication.
  s.repl = std::strncmp(s.point.c_str(), "repl.", 5) == 0 || rng.Chance(0.2);
  return s;
}

/// Live records verified across schedules, and how many of them store a
/// CC retry as a reference to an earlier record (the summary reports both).
uint64_t g_live_records = 0;
uint64_t g_ref_records = 0;

/// Recovers the schedule's directory and checks it against an independent
/// replay of its full persisted chain — archive + live log in truncate
/// mode, just the live log otherwise. Returns false (with a diagnostic) on
/// any divergence.
///
/// `leader_chain` covers the follower of a truncation schedule: a follower
/// that joined via snapshot has no genesis-rooted chain of its own, so the
/// reference replays the *leader's* full chain up to the follower's
/// recovered height instead. `full_out`, when set, receives this
/// directory's reconstructed full chain (for exactly that hand-off).
bool VerifySchedule(const std::string& dir,
                    const std::vector<Block>* leader_chain = nullptr,
                    std::vector<Block>* full_out = nullptr) {
  auto db = BootDb(dir);
  if (!db.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 db.status().ToString().c_str());
    return false;
  }
  if (Status s = (*db)->AuditChain(); !s.ok()) {
    std::fprintf(stderr, "audit failed: %s\n", s.ToString().c_str());
    return false;
  }
  auto recovered = (*db)->StateDigest();
  if (!recovered.ok()) {
    std::fprintf(stderr, "digest failed: %s\n",
                 recovered.status().ToString().c_str());
    return false;
  }
  BlockStore* store = (*db)->replica()->block_store();
  std::vector<Block> live;
  std::vector<std::pair<BlockId, std::string>> records;
  if (Status s = store->ReadAll(&live); !s.ok() ||
      !(s = store->ReadRecordsAfter(0, SIZE_MAX, &records)).ok()) {
    std::fprintf(stderr, "chain read failed: %s\n", s.ToString().c_str());
    return false;
  }
  for (const auto& [id, record] : records) {
    RecordShape shape;
    g_live_records++;
    if (BlockCodec::Peek(record, &shape) && shape.ref_reach > 0) {
      g_ref_records++;
    }
  }
  // Full chain = everything retention archived below the live log's first
  // record, then the live log. A crash between archive-append and rename
  // leaves the same records in both places; the id cut dedups them.
  std::vector<Block> archived;
  if (Status s = store->ReadArchivedBlocks(&archived); !s.ok()) {
    std::fprintf(stderr, "archive read failed: %s\n", s.ToString().c_str());
    return false;
  }
  const BlockId live_first =
      live.empty() ? 0 : live.front().header.block_id;
  std::vector<Block> blocks;
  for (Block& b : archived) {
    if (live.empty() || b.header.block_id < live_first) {
      blocks.push_back(std::move(b));
    }
  }
  for (Block& b : live) blocks.push_back(std::move(b));
  for (size_t i = 1; i < blocks.size(); i++) {
    if (blocks[i].header.block_id != blocks[i - 1].header.block_id + 1) {
      std::fprintf(stderr,
                   "full chain has a gap: block %" PRIu64 " follows %" PRIu64
                   "\n",
                   static_cast<uint64_t>(blocks[i].header.block_id),
                   static_cast<uint64_t>(blocks[i - 1].header.block_id));
      return false;
    }
  }
  if (full_out != nullptr) *full_out = blocks;

  // A snapshot-installed follower's chain starts past genesis (or is empty
  // at a non-zero height, when the kill landed right after the install):
  // its state can only be re-derived from the leader's genesis-rooted chain.
  if ((!blocks.empty() && blocks.front().header.block_id != 1) ||
      (blocks.empty() && (*db)->height() > 0)) {
    if (leader_chain == nullptr) {
      std::fprintf(stderr,
                   "chain starts at block %" PRIu64
                   " with no reference chain to replay\n",
                   blocks.empty()
                       ? uint64_t{0}
                       : static_cast<uint64_t>(blocks.front().header.block_id));
      return false;
    }
    blocks.clear();
    const BlockId h = (*db)->height();
    for (const Block& b : *leader_chain) {
      if (b.header.block_id <= h) blocks.push_back(b);
    }
    if (blocks.empty() || blocks.back().header.block_id != h) {
      std::fprintf(stderr,
                   "leader chain does not cover follower height %" PRIu64
                   "\n",
                   static_cast<uint64_t>(h));
      return false;
    }
  }

  // Independent reference: a fresh in-memory replica replays the recovered
  // chain from genesis. Deterministic execution makes its digest the ground
  // truth for "what the state after these blocks must be".
  ReplicaOptions ro;
  ro.dir = dir;
  ro.name = "ref";
  ro.in_memory = true;
  ro.threads = 2;
  ro.persist_blocks = false;
  // Must match the workload's checkpoint period: Replica::Open derives the
  // DCC barrier period from it, and barrier placement changes which
  // snapshot each block reads — a different period is a semantically
  // different (still deterministic) execution, not a valid reference.
  ro.checkpoint_every = DbOpts(dir).checkpoint_every;
  Replica ref(ro);
  if (!ref.Open().ok()) {
    std::fprintf(stderr, "reference open failed\n");
    return false;
  }
  ref.RegisterProcedure(1, "transfer", Transfer);
  ref.RegisterProcedure(2, "increment", Increment);
  for (Key k = 0; k < kAccounts; k++) {
    if (!ref.LoadRow(k, Value({kInitialBalance})).ok()) return false;
  }
  for (Block& b : blocks) {
    if (Status s = ref.SubmitBlock(std::move(b)); !s.ok()) {
      std::fprintf(stderr, "reference replay failed: %s\n",
                   s.ToString().c_str());
      return false;
    }
  }
  if (!ref.Drain().ok()) return false;
  auto expect = ref.StateDigest();
  if (!expect.ok()) return false;

  if (DigestHex(*recovered) != DigestHex(*expect)) {
    std::fprintf(stderr,
                 "DIGEST MISMATCH after recovery\n  recovered: %s\n"
                 "  reference: %s\n  chain blocks: %zu, height %" PRIu64 "\n",
                 DigestHex(*recovered).c_str(), DigestHex(*expect).c_str(),
                 blocks.size(),
                 static_cast<uint64_t>((*db)->height()));
    return false;
  }
  return true;
}

int RunSchedule(const std::string& exe, const std::string& base_dir,
                uint64_t run_seed, uint64_t k, bool keep,
                bool truncate_mode) {
  const Schedule plan = PlanSchedule(run_seed, k, truncate_mode);
  const char* mode_flag = truncate_mode ? " --truncate" : "";
  const std::string dir = base_dir + "/s" + std::to_string(k);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    // Child: arm the crash point in this environment only, then re-exec so
    // the crash-point library's env hook sees it at static-init time.
    ::setenv("HARMONY_CRASH", plan.EnvSpec().c_str(), 1);
    const std::string wseed = std::to_string(plan.wseed);
    const std::string txns = std::to_string(plan.txns);
    const std::string retain = std::to_string(plan.retain);
    std::vector<const char*> args = {exe.c_str(),    "--child", "--dir",
                                     dir.c_str(),    "--wseed", wseed.c_str(),
                                     "--txns",       txns.c_str()};
    if (plan.repl) args.push_back("--repl");
    if (plan.retain > 0) {
      args.push_back("--retain");
      args.push_back(retain.c_str());
    }
    args.push_back(nullptr);
    ::execv(exe.c_str(), const_cast<char* const*>(args.data()));
    std::perror("execv");
    ::_exit(127);
  }

  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    std::perror("waitpid");
    return 1;
  }
  const bool killed =
      WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  const bool completed = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  if (!killed && !completed) {
    std::fprintf(stderr,
                 "schedule %" PRIu64 " (%s): child failed (wstatus 0x%x)\n"
                 "reproduce: torture%s --seed %" PRIu64 " --schedule %" PRIu64
                 "\n",
                 k, plan.EnvSpec().c_str(), wstatus, mode_flag, run_seed, k);
    return 1;
  }
  std::vector<Block> leader_chain;
  if (!VerifySchedule(dir, nullptr, plan.repl ? &leader_chain : nullptr)) {
    std::fprintf(stderr,
                 "schedule %" PRIu64 " (%s, %s): recovery check FAILED\n"
                 "reproduce: torture%s --seed %" PRIu64 " --schedule %" PRIu64
                 "\n",
                 k, plan.EnvSpec().c_str(), killed ? "killed" : "ran out",
                 mode_flag, run_seed, k);
    return 1;
  }
  // A repl schedule killed leader and follower at the same instant; the
  // follower's directory must recover exactly like any replica's. The dir
  // may be absent when the kill landed before the follower booted. A
  // truncation-schedule follower may have snapshot-joined — its reference
  // is the leader's full chain.
  if (plan.repl && std::filesystem::exists(dir + "/follower") &&
      !VerifySchedule(dir + "/follower", &leader_chain)) {
    std::fprintf(stderr,
                 "schedule %" PRIu64 " (%s, %s): FOLLOWER recovery check "
                 "FAILED\nreproduce: torture%s --seed %" PRIu64
                 " --schedule %" PRIu64 "\n",
                 k, plan.EnvSpec().c_str(), killed ? "killed" : "ran out",
                 mode_flag, run_seed, k);
    return 1;
  }
  if (!keep) std::filesystem::remove_all(dir, ec);
  return 0;
}

int TortureMain(int argc, char** argv) {
  std::string dir;
  std::string child_dir;
  uint64_t schedules = 200;
  uint64_t seed = 1;
  uint64_t only_schedule = 0;
  bool have_only = false;
  bool child = false;
  bool keep = false;
  bool repl = false;
  bool truncate_mode = false;
  uint64_t wseed = 0;
  uint64_t txns = 0;
  uint64_t retain = 0;

  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--schedules") {
      schedules = std::strtoull(next(), nullptr, 0);
    } else if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (a == "--schedule") {
      only_schedule = std::strtoull(next(), nullptr, 0);
      have_only = true;
    } else if (a == "--dir") {
      dir = next();
    } else if (a == "--keep") {
      keep = true;
    } else if (a == "--child") {
      child = true;
    } else if (a == "--wseed") {
      wseed = std::strtoull(next(), nullptr, 0);
    } else if (a == "--txns") {
      txns = std::strtoull(next(), nullptr, 0);
    } else if (a == "--repl") {
      repl = true;
    } else if (a == "--truncate") {
      truncate_mode = true;
    } else if (a == "--retain") {
      retain = std::strtoull(next(), nullptr, 0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  if (child) {
    if (dir.empty()) {
      std::fprintf(stderr, "--child needs --dir\n");
      return 2;
    }
    return RunChild(dir, wseed, txns, repl, retain);
  }

  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::perror("readlink /proc/self/exe");
    return 1;
  }
  exe[n] = '\0';

  bool own_dir = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/harmony_torture_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    dir = tmpl;
    own_dir = true;
  }

  const uint64_t first = have_only ? only_schedule : 0;
  const uint64_t last = have_only ? only_schedule + 1 : schedules;
  for (uint64_t k = first; k < last; k++) {
    const int rc =
        RunSchedule(exe, dir, seed, k, keep || have_only, truncate_mode);
    if (rc != 0) return rc;
  }
  if (own_dir && !keep && !have_only) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  std::printf("torture%s: %" PRIu64 " schedule(s) passed (seed %" PRIu64
              ", digests verified against reference replay; %" PRIu64
              " of %" PRIu64 " live records store a retry by reference)\n",
              truncate_mode ? " (truncate mode)" : "", last - first, seed,
              g_ref_records, g_live_records);
  return 0;
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) { return harmony::TortureMain(argc, argv); }
