#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dcc/false_abort_oracle.h"
#include "dcc/protocol.h"
#include "storage/state_backend.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"
#include "txn/txn_context.h"

namespace harmony {
namespace {

// ---- Test procedures --------------------------------------------------
// 1: reads(keys...)                      read-only
// 2: add(key, delta)                     pure command update
// 3: mul(key, factor)                    pure command update
// 4: set(key, v)                         blind write
// 5: read_then_set(rkey, wkey, v)        wkey.f0 = rkey.f0 + v
// 6: transfer(a, b, amt)                 branch on balance (logic abort)
// 7: rmw_split(key)                      read key, set key = read + 1
// 8: put(key, v)                         insert
// 9: erase(key)
// 10: peek_then_set(rkey, wkey, v)       read rkey, ignore the outcome, set

void RegisterTestProcs(ProcedureRegistry* reg) {
  reg->Register(1, "reads", [](TxnContext& ctx, const ProcArgs& a) {
    for (int64_t k : a.ints) {
      std::optional<Value> v;
      HARMONY_RETURN_NOT_OK(ctx.Get(static_cast<Key>(k), &v));
    }
    return Status::OK();
  });
  reg->Register(2, "add", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.AddField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(3, "mul", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.MulField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(4, "set", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.SetField(static_cast<Key>(a.at(0)), 0, a.at(1));
    return Status::OK();
  });
  reg->Register(5, "read_then_set", [](TxnContext& ctx, const ProcArgs& a) {
    Value r;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &r));
    ctx.SetField(static_cast<Key>(a.at(1)), 0, r.field(0) + a.at(2));
    return Status::OK();
  });
  reg->Register(6, "transfer", [](TxnContext& ctx, const ProcArgs& a) {
    Value src;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &src));
    if (src.field(0) < a.at(2)) return Status::Aborted("insufficient");
    ctx.AddField(static_cast<Key>(a.at(0)), 0, -a.at(2));
    ctx.AddField(static_cast<Key>(a.at(1)), 0, a.at(2));
    return Status::OK();
  });
  reg->Register(7, "rmw_split", [](TxnContext& ctx, const ProcArgs& a) {
    Value r;
    HARMONY_RETURN_NOT_OK(ctx.GetExisting(static_cast<Key>(a.at(0)), &r));
    ctx.SetField(static_cast<Key>(a.at(0)), 0, r.field(0) + 1);
    return Status::OK();
  });
  reg->Register(8, "put", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.Put(static_cast<Key>(a.at(0)), Value({a.at(1)}));
    return Status::OK();
  });
  reg->Register(9, "erase", [](TxnContext& ctx, const ProcArgs& a) {
    ctx.Erase(static_cast<Key>(a.at(0)));
    return Status::OK();
  });
  reg->Register(10, "peek_then_set", [](TxnContext& ctx, const ProcArgs& a) {
    std::optional<Value> v;
    (void)ctx.Get(static_cast<Key>(a.at(0)), &v);
    ctx.SetField(static_cast<Key>(a.at(1)), 0, a.at(2));
    return Status::OK();
  });
}

/// A memory backend whose Get of one chosen key fails (an IOError unless
/// set otherwise): a storage fault that only this replica sees. It counts
/// the writes that reach that key.
class FaultyReadBackend : public MemoryBackend {
 public:
  static constexpr Key kNoFault = ~Key{0};
  // Set before executing; read by the workers.
  Key fail_key = kNoFault;
  Status fault = Status::IOError("injected read fault");
  /// Reads of fail_key left to fail; negative: every one.
  std::atomic<int> faults_left{-1};
  std::atomic<int> fail_key_writes{0};

  Status Get(Key key, std::string* out) override {
    if (key == fail_key && faults_left.load() != 0) {
      if (faults_left.load() > 0) faults_left.fetch_sub(1);
      return fault;
    }
    return MemoryBackend::Get(key, out);
  }
  Status Put(Key key, std::string_view value,
             std::optional<std::string>* old_value) override {
    if (key == fail_key) fail_key_writes.fetch_add(1);
    return MemoryBackend::Put(key, value, old_value);
  }
  Status Erase(Key key, std::optional<std::string>* old_value) override {
    if (key == fail_key) fail_key_writes.fetch_add(1);
    return MemoryBackend::Erase(key, old_value);
  }
};

TxnRequest Req(uint32_t proc, std::vector<int64_t> ints) {
  TxnRequest r;
  r.proc_id = proc;
  r.args.ints = std::move(ints);
  return r;
}

/// Serial reference engine: executes procedures one at a time against a
/// plain map, applying writes immediately — the definition of a serial
/// schedule.
class SerialEngine {
 public:
  explicit SerialEngine(const ProcedureRegistry* reg) : reg_(reg) {}

  std::map<Key, Value> state;

  /// Runs one transaction serially; returns false on logic abort.
  bool Run(const TxnRequest& req) {
    TxnContext ctx(0, 0, [this](Key k, std::optional<Value>* out) {
      auto it = state.find(k);
      if (it != state.end()) {
        out->emplace(it->second);
      } else {
        out->reset();
      }
      return Status::OK();
    });
    const ProcedureFn* fn = reg_->Find(req.proc_id);
    EXPECT_NE(fn, nullptr);
    if (!(*fn)(ctx, req.args).ok()) return false;
    for (const auto& [k, cmd] : ctx.write_set()) {
      std::optional<Value> slot;
      auto it = state.find(k);
      if (it != state.end()) slot = it->second;
      cmd.Apply(&slot);
      if (slot.has_value()) {
        state[k] = *slot;
      } else {
        state.erase(k);
      }
    }
    return true;
  }

 private:
  const ProcedureRegistry* reg_;
};

/// Harness around one protocol instance over a memory backend.
class Engine {
 public:
  Engine(DccKind kind, DccConfig cfg, size_t threads = 4) {
    RegisterTestProcs(&procs_);
    store_ = std::make_unique<VersionedStore>(&backend_);
    pool_ = std::make_unique<ThreadPool>(threads);
    cfg.barrier_every = 0;  // DCC unit tests: no checkpoint barriers
    proto_ = MakeProtocol(kind, store_.get(), &procs_, pool_.get(), cfg);
  }

  void Load(Key k, int64_t v) {
    ASSERT_OK(backend_.Put(k, Value({v}).Encode(), nullptr));
  }

  BlockResult Execute(std::vector<TxnRequest> txns) {
    TxnBatch b;
    b.block_id = ++last_block_;
    b.first_tid = next_tid_;
    next_tid_ += txns.size();
    b.txns = std::move(txns);
    BlockResult res;
    EXPECT_OK(proto_->ExecuteBlock(b, &res));
    last_batch_ = b;
    return res;
  }

  /// Executes the next block and returns its status instead of expecting OK.
  Status TryExecute(std::vector<TxnRequest> txns) {
    TxnBatch b;
    b.block_id = ++last_block_;
    b.first_tid = next_tid_;
    next_tid_ += txns.size();
    b.txns = std::move(txns);
    BlockResult res;
    return proto_->ExecuteBlock(b, &res);
  }

  /// Makes every backend read of `k` fail from now on.
  void FailReadsOf(Key k) { backend_.fail_key = k; }
  /// Makes the next backend read of `k` fail with `fault`.
  void FailNextReadOf(Key k, Status fault) {
    backend_.fail_key = k;
    backend_.fault = std::move(fault);
    backend_.faults_left = 1;
  }
  /// Backend writes of the key a Fail*Of call named.
  int fail_key_writes() const { return backend_.fail_key_writes.load(); }

  /// Pipelined execution of two batches (simulate i+1 before commit i).
  std::pair<BlockResult, BlockResult> ExecutePipelined(
      std::vector<TxnRequest> first, std::vector<TxnRequest> second) {
    TxnBatch b1{++last_block_, next_tid_, {}};
    b1.txns = std::move(first);
    next_tid_ += b1.txns.size();
    TxnBatch b2{++last_block_, next_tid_, {}};
    b2.txns = std::move(second);
    next_tid_ += b2.txns.size();
    EXPECT_OK(proto_->Simulate(b1));
    EXPECT_OK(proto_->Simulate(b2));  // overlapped: sees snapshot b1-2
    BlockResult r1, r2;
    EXPECT_OK(proto_->Commit(b1, &r1));
    EXPECT_OK(proto_->Commit(b2, &r2));
    return {r1, r2};
  }

  int64_t Field0(Key k) {
    std::string raw;
    Status s = backend_.Get(k, &raw);
    EXPECT_OK(s);
    return Value::Decode(raw).field(0);
  }

  bool Exists(Key k) {
    std::string raw;
    return backend_.Get(k, &raw).ok();
  }

  std::map<Key, Value> Snapshot() {
    std::map<Key, Value> out;
    EXPECT_OK(backend_.ScanAll([&](Key k, std::string_view v) {
      out[k] = Value::Decode(v);
    }));
    return out;
  }

  const TxnBatch& last_batch() const { return last_batch_; }
  DccProtocol* protocol() { return proto_.get(); }
  const ProcedureRegistry& procs() const { return procs_; }
  ProcedureRegistry* mutable_procs() { return &procs_; }

 private:
  FaultyReadBackend backend_;
  std::unique_ptr<VersionedStore> store_;
  ProcedureRegistry procs_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<DccProtocol> proto_;
  BlockId last_block_ = 0;
  TxnId next_tid_ = 1;
  TxnBatch last_batch_;
};

// ---- Harmony ----------------------------------------------------------

TEST(Harmony, NonConflictingAllCommit) {
  Engine e(DccKind::kHarmony, {});
  for (Key k = 1; k <= 20; k++) e.Load(k, 100);
  std::vector<TxnRequest> txns;
  for (int i = 1; i <= 20; i++) {
    txns.push_back(Req(2, {i, i}));  // add(k_i, i)
  }
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 20u);
  EXPECT_EQ(r.cc_aborted, 0u);
  for (Key k = 1; k <= 20; k++) EXPECT_EQ(e.Field0(k), 100 + static_cast<int64_t>(k));
}

TEST(Harmony, WwDependenciesNeverAbort) {
  // All concurrent updaters of one hot record commit (update reordering) —
  // the exact case where Aria aborts all but one (Figure 14's mechanism).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 1; i <= 50; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 50u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 50);
}

TEST(Harmony, ReorderWithExplicitDependency) {
  // The Section 3.3.1 example: x = 10. T1: add(x,10) and writes y;
  // T2: reads y (T1's before-image => T1 rw<- T2), mul(x,3).
  // Order T2 before T1: x = (10 * 3) + 10 = 40, and both commit.
  Engine e(DccKind::kHarmony, {});
  // proc 10: T1 = { add(x, 10); set(y, 1); }
  // proc 11: T2 = { read(y); mul(x, 3); }
  e.mutable_procs()->Register(10, "t1", [](TxnContext& ctx, const ProcArgs&) {
        ctx.AddField(1, 0, 10);
        ctx.SetField(2, 0, 1);
        return Status::OK();
      });
  e.mutable_procs()->Register(11, "t2", [](TxnContext& ctx, const ProcArgs&) {
        Value y;
        HARMONY_RETURN_NOT_OK(ctx.GetExisting(2, &y));
        ctx.MulField(1, 0, 3);
        return Status::OK();
      });
  e.Load(1, 10);
  e.Load(2, 5);
  BlockResult r = e.Execute({Req(10, {}), Req(11, {})});
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 40);  // mul first (T2 precedes T1), then add
  EXPECT_EQ(e.Field0(2), 1);
  // Equivalent serial order puts T2 (tid 2) before T1 (tid 1).
  ASSERT_EQ(r.equivalent_serial_order.size(), 2u);
  EXPECT_EQ(r.equivalent_serial_order[0], 2u);
  EXPECT_EQ(r.equivalent_serial_order[1], 1u);
}

TEST(Harmony, BackwardDangerousStructureTwoTxns) {
  // Figure 3a: T1 reads a & writes b; T2 reads b & writes a.
  // Both rw edges close a 2-cycle; Rule 1 aborts T2 (the larger TID pivot).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);  // a
  e.Load(2, 0);  // b
  BlockResult r = e.Execute({
      Req(5, {1, 2, 7}),  // T1: read a, set b
      Req(5, {2, 1, 9}),  // T2: read b, set a
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.dangerous_hits, 1u);
  EXPECT_EQ(r.outcomes[0], TxnOutcome::kCommitted);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
  EXPECT_EQ(e.Field0(2), 7);  // T1's write landed
  EXPECT_EQ(e.Field0(1), 0);  // T2 aborted
}

TEST(Harmony, SplitRmwOnHotKeySerializesByAbort) {
  // rmw_split reads AND writes the same key: concurrent instances form rw
  // cycles; exactly one survives per block (the paper's developer-practice
  // caveat at the end of Section 3.3.2).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(7, {1}), Req(7, {1}), Req(7, {1})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 2u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(Harmony, ReadersDoNotAbortWriters) {
  // Plain readers + one writer: reader reads the before-image (snapshot);
  // serial order readers-then-writer; nobody aborts.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 42);
  BlockResult r = e.Execute({
      Req(1, {1}),      // reader
      Req(1, {1}),      // reader
      Req(4, {1, 99}),  // blind writer
  });
  EXPECT_EQ(r.committed, 3u);
  EXPECT_EQ(e.Field0(1), 99);
}

TEST(Harmony, LogicAbortLeavesNoTrace) {
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(2, 10);
  BlockResult r = e.Execute({
      Req(6, {1, 2, 1000}),  // insufficient funds -> logic abort
      Req(6, {1, 2, 5}),     // fine
  });
  EXPECT_EQ(r.logic_aborted, 1u);
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 0u);
  EXPECT_EQ(e.Field0(1), 5);
  EXPECT_EQ(e.Field0(2), 15);
}

TEST(Harmony, InsertAndEraseAcrossBlocks) {
  Engine e(DccKind::kHarmony, {});
  BlockResult r1 = e.Execute({Req(8, {100, 7})});
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_TRUE(e.Exists(100));
  BlockResult r2 = e.Execute({Req(9, {100})});
  EXPECT_EQ(r2.committed, 1u);
  // One more block so the erase is visible to a lag-2 snapshot read.
  e.Execute({Req(8, {101, 1})});
  EXPECT_FALSE(e.Exists(100));
}

TEST(Harmony, InterBlockDependencyPolicyFigure6) {
  // Block i: T1 reads y & writes x (via read_then_set), T2 reads x (writes z)
  // => T1 intra-rw<- T2? We need: T1 <-intra-rw- T2 and T2 <-inter-rw- T3.
  // Construct: block i: T1 writes a (set), T2 reads a + writes b.
  //   => T1 rw<- T2 (T2 read T1's before-image of a), with T1.tid < T2.tid.
  // Block i+1 (pipelined, snapshot i-1): T3 reads b (written by T2 in i).
  //   => T2 inter-rw<- T3. Generalized structure => abort T3 (policy ii).
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);  // a
  e.Load(2, 0);  // b
  e.Load(3, 0);  // z
  auto [r1, r2] = e.ExecutePipelined(
      {
          Req(4, {1, 5}),     // T1: set a = 5
          Req(5, {1, 2, 1}),  // T2: read a, set b (reads before-image)
      },
      {
          Req(5, {2, 3, 1}),  // T3: read b, set z
      });
  EXPECT_EQ(r1.committed, 2u);  // T2's min_out=1 but max_in=0: commits
  EXPECT_EQ(r2.cc_aborted, 1u);  // T3 aborted by the enhanced rule
  EXPECT_EQ(e.Field0(3), 0);
}

TEST(Harmony, InterBlockCleanReadBeforeImageCommits) {
  // T in block i+1 reads a key written by a "clean" writer W of block i
  // (W has no backward edges) and writes elsewhere: T commits, serialized
  // before W — its read of the before-image is consistent.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(5, 0);
  auto [r1, r2] = e.ExecutePipelined(
      {Req(4, {1, 99})},       // W: blind write a
      {Req(5, {1, 5, 0})});    // T: read a, set k5 = read + 0
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_EQ(r2.committed, 1u);
  EXPECT_EQ(e.Field0(1), 99);
  EXPECT_EQ(e.Field0(5), 10);  // T saw the before-image, consistent with T<W
}

TEST(Harmony, InterBlockWwGuardAborts) {
  // T in block i+1 reads W's before-image AND writes a key W wrote: 2-cycle
  // (T -rw-> W -ww-> T); the later transaction must abort.
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 10);
  e.Load(2, 0);
  // W writes both a and b; T reads a (before-image) and writes b.
  e.mutable_procs()->Register(12, "w_ab", [](TxnContext& ctx, const ProcArgs&) {
        ctx.SetField(1, 0, 99);
        ctx.SetField(2, 0, 50);
        return Status::OK();
      });
  auto [r1, r2] = e.ExecutePipelined(
      {Req(12, {})},
      {Req(5, {1, 2, 0})});  // T: read a, set b
  EXPECT_EQ(r1.committed, 1u);
  EXPECT_EQ(r2.cc_aborted, 1u);
  EXPECT_EQ(e.Field0(2), 50);  // W's value stands
}

TEST(Harmony, TableThreeHitRateCountsDangerousStructures) {
  Engine e(DccKind::kHarmony, {});
  e.Load(1, 0);
  e.Execute({Req(7, {1}), Req(7, {1})});
  const ProtocolStats& s = e.protocol()->stats();
  EXPECT_EQ(s.dangerous_hits.load(), 1u);
  EXPECT_GT(s.dangerous_hit_rate(), 0.0);
}

// ---- Ablation flags ---------------------------------------------------

TEST(HarmonyAblation, NoReorderingFallsBackToWwAborts) {
  DccConfig cfg;
  cfg.harmony_update_reordering = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 0; i < 10; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 1u);  // Aria-style: first writer wins
  EXPECT_EQ(r.cc_aborted, 9u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(HarmonyAblation, NoCoalescingStillCorrect) {
  DccConfig cfg;
  cfg.harmony_update_coalescing = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 10);
  std::vector<TxnRequest> txns;
  txns.push_back(Req(2, {1, 5}));   // +5
  txns.push_back(Req(3, {1, 2}));   // *2
  txns.push_back(Req(2, {1, 1}));   // +1
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 3u);
  // Order is (min_out, tid) = TID order here: ((10+5)*2)+1 = 31.
  EXPECT_EQ(e.Field0(1), 31);
}

TEST(HarmonyAblation, NoInterBlockUsesLagOneSnapshot) {
  DccConfig cfg;
  cfg.harmony_inter_block = false;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 1);
  e.Execute({Req(4, {1, 2})});
  // With lag 1 the next block reads the previous block's writes directly.
  e.mutable_procs()->Register(13, "assert_sees_2", [](TxnContext& ctx, const ProcArgs&) {
        Value v;
        HARMONY_RETURN_NOT_OK(ctx.GetExisting(1, &v));
        return v.field(0) == 2 ? Status::OK() : Status::Aborted("stale");
      });
  BlockResult r = e.Execute({Req(13, {})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.logic_aborted, 0u);
}

// ---- Randomized serializability oracle ---------------------------------

struct OracleParam {
  bool reorder;
  bool coalesce;
  bool inter_block;
};

class HarmonyOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(HarmonyOracleTest, SingleBlockMatchesSerialReplay) {
  const OracleParam p = GetParam();
  Rng rng(p.reorder * 4 + p.coalesce * 2 + p.inter_block + 17);
  for (int trial = 0; trial < 30; trial++) {
    DccConfig cfg;
    cfg.harmony_update_reordering = p.reorder;
    cfg.harmony_update_coalescing = p.coalesce;
    cfg.harmony_inter_block = p.inter_block;
    Engine e(DccKind::kHarmony, cfg);
    SerialEngine serial(&e.procs());
    for (Key k = 1; k <= 8; k++) {
      const int64_t v = rng.UniformRange(0, 100);
      e.Load(k, v);
      serial.state[k] = Value({v});
    }
    std::vector<TxnRequest> txns;
    const size_t n = 2 + rng.Uniform(18);
    for (size_t i = 0; i < n; i++) {
      const int64_t k1 = rng.UniformRange(1, 8), k2 = rng.UniformRange(1, 8);
      switch (rng.Uniform(7)) {
        case 0: txns.push_back(Req(1, {k1, k2})); break;
        case 1: txns.push_back(Req(2, {k1, rng.UniformRange(-9, 9)})); break;
        case 2: txns.push_back(Req(3, {k1, rng.UniformRange(-2, 3)})); break;
        case 3: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 4: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        case 5: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 60)})); break;
        default: txns.push_back(Req(7, {k1})); break;
      }
    }
    BlockResult r = e.Execute(std::move(txns));

    // Replay committed transactions serially in the protocol's equivalent
    // order; states must match byte for byte.
    const TxnBatch& batch = e.last_batch();
    for (TxnId tid : r.equivalent_serial_order) {
      const size_t idx = static_cast<size_t>(tid - batch.first_tid);
      EXPECT_TRUE(serial.Run(batch.txns[idx]))
          << "committed txn logic-aborted in serial replay (trial " << trial
          << ")";
    }
    const auto engine_state = e.Snapshot();
    ASSERT_EQ(engine_state.size(), serial.state.size()) << "trial " << trial;
    for (const auto& [k, v] : serial.state) {
      auto it = engine_state.find(k);
      ASSERT_NE(it, engine_state.end()) << "trial " << trial;
      ASSERT_EQ(it->second, v) << "key " << k << " trial " << trial;
    }
  }
}

TEST_P(HarmonyOracleTest, MultiBlockDeterminismAcrossThreadCounts) {
  const OracleParam p = GetParam();
  DccConfig cfg;
  cfg.harmony_update_reordering = p.reorder;
  cfg.harmony_update_coalescing = p.coalesce;
  cfg.harmony_inter_block = p.inter_block;
  DccConfig cfg_jitter = cfg;
  cfg_jitter.straggler_prob = 0.2;
  cfg_jitter.straggler_us = 300;

  Engine a(DccKind::kHarmony, cfg, /*threads=*/1);
  Engine b(DccKind::kHarmony, cfg_jitter, /*threads=*/8);
  Rng rng(555);
  for (Key k = 1; k <= 10; k++) {
    const int64_t v = rng.UniformRange(0, 100);
    a.Load(k, v);
    b.Load(k, v);
  }
  for (int block = 0; block < 8; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 12; i++) {
      const int64_t k1 = rng.UniformRange(1, 10), k2 = rng.UniformRange(1, 10);
      switch (rng.Uniform(5)) {
        case 0: txns.push_back(Req(2, {k1, rng.UniformRange(-9, 9)})); break;
        case 1: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 2: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        case 3: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 40)})); break;
        default: txns.push_back(Req(7, {k1})); break;
      }
    }
    BlockResult ra = a.Execute(txns);
    BlockResult rb = b.Execute(txns);
    // Identical commit decisions, transaction by transaction.
    ASSERT_EQ(ra.outcomes, rb.outcomes) << "block " << block;
  }
  EXPECT_EQ(a.Snapshot(), b.Snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Flags, HarmonyOracleTest,
    ::testing::Values(OracleParam{true, true, true},
                      OracleParam{true, true, false},
                      OracleParam{true, false, true},
                      OracleParam{true, false, false},
                      OracleParam{false, true, false},
                      OracleParam{false, false, false}),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      std::string s;
      s += info.param.reorder ? "reorder" : "noreorder";
      s += info.param.coalesce ? "_coalesce" : "_nocoalesce";
      s += info.param.inter_block ? "_inter" : "_nointer";
      return s;
    });

// ---- Baselines ---------------------------------------------------------

TEST(Aria, WwDependencyAborts) {
  Engine e(DccKind::kAria, {});
  e.Load(1, 0);
  std::vector<TxnRequest> txns;
  for (int i = 0; i < 10; i++) txns.push_back(Req(2, {1, 1}));
  BlockResult r = e.Execute(std::move(txns));
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 9u);
  EXPECT_EQ(e.Field0(1), 1);
}

TEST(Aria, ReorderingSavesRawOnlyTxn) {
  // T1 writes a; T2 reads a (raw) but nobody reads T2's writes (no war):
  // with deterministic reordering T2 commits (serialized before T1).
  DccConfig cfg;
  cfg.aria_deterministic_reordering = true;
  Engine e(DccKind::kAria, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(4, {1, 99}),    // T1: blind write a
      Req(5, {1, 2, 0}),  // T2: read a, set b = a + 0
  });
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(2), 10);  // T2 read the before-image

  DccConfig strict;
  strict.aria_deterministic_reordering = false;
  Engine e2(DccKind::kAria, strict);
  e2.Load(1, 10);
  e2.Load(2, 0);
  BlockResult r2 = e2.Execute({Req(4, {1, 99}), Req(5, {1, 2, 0})});
  EXPECT_EQ(r2.committed, 1u);  // without reordering, raw alone aborts
  EXPECT_EQ(r2.cc_aborted, 1u);
}

TEST(Rbc, SsiPivotAborts) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  e.Load(2, 0);
  e.Load(3, 0);
  // T1: reads b, writes c. T2: reads a... construct pivot T2:
  // T1 (tid1): read k2, write k3. T2 (tid2): read k3 (out-rw to T1? no —
  // out-rw = read a key a *committed* txn wrote: T1 wrote k3, T2 reads k3;
  // T2 also writes k2 which committed T1 read (in-rw). Pivot => abort.
  BlockResult r = e.Execute({
      Req(5, {2, 3, 1}),  // T1: read k2, set k3
      Req(5, {3, 2, 1}),  // T2: read k3, set k2 -> pivot
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
}

TEST(Rbc, WwAborts) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 9})});
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(e.Field0(1), 5);  // first committer wins
}

TEST(Rbc, PureReadersAndDisjointWritersCommit) {
  Engine e(DccKind::kRbc, {});
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(1, {1, 2}),
      Req(4, {1, 5}),
      Req(4, {2, 6}),
  });
  EXPECT_EQ(r.committed, 3u);
}

TEST(Fabric, IntraBlockStaleReadAborts) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(4, {1, 99}),     // T1 writes a
      Req(5, {1, 2, 0}),   // T2 read a at endorsement; T1 commits first
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.outcomes[1], TxnOutcome::kCcAborted);
}

TEST(Fabric, CrossBlockStaleReadWithEndorsementLag) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 2;
  Engine e(DccKind::kFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  // Block 1 updates key 1. Blocks 2-3 pad the pipeline. The txn in block 4
  // endorsed against snapshot 1 (= 4 - 1 - 2)... endorsements at snapshot 1
  // already see block 1's write, so instead update key 1 again in block 3:
  e.Execute({Req(4, {1, 11})});  // block 1
  e.Execute({Req(2, {2, 1})});   // block 2 (unrelated)
  e.Execute({Req(4, {1, 12})});  // block 3 updates key 1
  // Block 4's txn endorses at snapshot 1 (version of key1 = block 1) but
  // validates against state 3 (version = block 3): stale => abort.
  BlockResult r = e.Execute({Req(5, {1, 2, 0})});
  EXPECT_EQ(r.cc_aborted, 1u);
}

TEST(FastFabric, OrderableConflictsCommit) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 10);
  e.Load(2, 0);
  // Reader + writer of the same key: the graph orders reader first; both
  // commit (Fabric would abort the reader if validated after the writer).
  BlockResult r = e.Execute({
      Req(4, {1, 99}),     // writer (tid 1)
      Req(5, {1, 2, 0}),   // reader of key1 (tid 2) -> ordered before writer
  });
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(1), 99);
  EXPECT_EQ(e.Field0(2), 10);  // reader saw the pre-image consistently
}

TEST(FastFabric, CycleBrokenByAbort) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(5, {1, 2, 1}),  // read a, write b
      Req(5, {2, 1, 1}),  // read b, write a -> 2-cycle
  });
  EXPECT_EQ(r.committed, 1u);
  EXPECT_EQ(r.cc_aborted, 1u);
}

TEST(FastFabric, BlindWwBothCommitLastWins) {
  DccConfig cfg;
  cfg.sov_endorsement_lag = 0;
  Engine e(DccKind::kFastFabric, cfg);
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 9})});
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(e.Field0(1), 9);  // ww edge by TID: the later writer's value
}

// ---- Cross-protocol properties -----------------------------------------

class AllProtocolsTest : public ::testing::TestWithParam<DccKind> {};

TEST_P(AllProtocolsTest, DeterministicAcrossThreadCounts) {
  const DccKind kind = GetParam();
  DccConfig cfg;
  DccConfig cfg_jitter = cfg;
  cfg_jitter.straggler_prob = 0.3;
  cfg_jitter.straggler_us = 200;
  Engine a(kind, cfg, 1);
  Engine b(kind, cfg_jitter, 8);
  Rng rng(2024);
  for (Key k = 1; k <= 12; k++) {
    const int64_t v = rng.UniformRange(50, 150);
    a.Load(k, v);
    b.Load(k, v);
  }
  for (int block = 0; block < 10; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 15; i++) {
      const int64_t k1 = rng.UniformRange(1, 12), k2 = rng.UniformRange(1, 12);
      switch (rng.Uniform(5)) {
        case 0: txns.push_back(Req(1, {k1})); break;
        case 1: txns.push_back(Req(2, {k1, rng.UniformRange(-5, 5)})); break;
        case 2: txns.push_back(Req(4, {k1, rng.UniformRange(0, 99)})); break;
        case 3: txns.push_back(Req(5, {k1, k2, rng.UniformRange(0, 9)})); break;
        default: txns.push_back(Req(6, {k1, k2, rng.UniformRange(0, 30)})); break;
      }
    }
    BlockResult ra = a.Execute(txns);
    BlockResult rb = b.Execute(txns);
    ASSERT_EQ(ra.outcomes, rb.outcomes)
        << DccKindName(kind) << " diverged at block " << block;
  }
  EXPECT_EQ(a.Snapshot(), b.Snapshot()) << DccKindName(kind);
}

TEST_P(AllProtocolsTest, MoneyConservationUnderContention) {
  // Transfers only: every serializable execution conserves the total and
  // never overdraws (the overdraft check must see a consistent balance).
  const DccKind kind = GetParam();
  Engine e(kind, {});
  Rng rng(31337);
  const int kAccounts = 6;  // tight: heavy conflicts
  int64_t total = 0;
  for (Key k = 1; k <= kAccounts; k++) {
    e.Load(k, 100);
    total += 100;
  }
  for (int block = 0; block < 12; block++) {
    std::vector<TxnRequest> txns;
    for (int i = 0; i < 10; i++) {
      int64_t a = rng.UniformRange(1, kAccounts);
      int64_t b = rng.UniformRange(1, kAccounts);
      if (b == a) b = a % kAccounts + 1;
      txns.push_back(Req(6, {a, b, rng.UniformRange(1, 80)}));
    }
    e.Execute(std::move(txns));
  }
  int64_t sum = 0;
  for (Key k = 1; k <= kAccounts; k++) {
    const int64_t bal = e.Field0(k);
    EXPECT_GE(bal, 0) << DccKindName(kind) << " overdrew account " << k;
    sum += bal;
  }
  EXPECT_EQ(sum, total) << DccKindName(kind) << " lost money";
}

TEST_P(AllProtocolsTest, StoreReadErrorFailsTheBlock) {
  // A read the store fails is this replica's fault, not the transaction's:
  // the block must fail with that status rather than commit or logic-abort
  // (which another replica, whose read succeeds, would not do). Each case
  // runs on a fresh engine, since a failed block leaves the engine behind.
  const DccKind kind = GetParam();
  const std::vector<std::vector<TxnRequest>> blocks = {
      {Req(1, {2})},             // the procedure returns the read's error
      {Req(10, {2, 3, 7})},      // it ignores the error and writes key 3
      {Req(2, {2, 1})},          // an update command reads key 2's value
      {Req(2, {1, 1}), Req(10, {2, 3, 7}), Req(1, {1})},  // one of three
  };
  for (size_t c = 0; c < blocks.size(); c++) {
    Engine e(kind, {});
    for (Key k = 1; k <= 3; k++) e.Load(k, 10);
    e.FailReadsOf(2);
    Status s = e.TryExecute(blocks[c]);
    EXPECT_TRUE(s.IsIOError())
        << DccKindName(kind) << " case " << c << ": " << s.ToString();
    EXPECT_EQ(e.Field0(3), 10) << DccKindName(kind) << " case " << c;
  }
}

// A commit-time base read that fails fails the block with the backend's
// own status, not a generic one, and the key it was for is not written,
// not even with the commands applied before the failure. An add command
// reads nothing while simulating, so key 1's first read is its base read
// at commit; the fault is one-shot, so a write that went ahead would find
// the key readable again.
TEST(DccStoreError, CommitKeepsTheBackendStatusAndSkipsTheKey) {
  struct Case {
    DccKind kind;
    bool coalescing;
  };
  for (const Case c : {Case{DccKind::kHarmony, true},
                       Case{DccKind::kHarmony, false},
                       Case{DccKind::kAria, true},
                       Case{DccKind::kAria, false}}) {
    const std::string name = std::string(DccKindName(c.kind)) +
                             (c.coalescing ? " coalescing" : " per-command");
    DccConfig cfg;
    cfg.harmony_update_coalescing = c.coalescing;
    Engine e(c.kind, cfg);
    e.Load(1, 10);
    e.Load(2, 10);
    e.FailNextReadOf(1, Status::Corruption("injected read fault"));
    Status s = e.TryExecute({Req(2, {1, 5}), Req(2, {1, 7}), Req(2, {2, 3})});
    EXPECT_TRUE(s.IsCorruption()) << name << ": " << s.ToString();
    EXPECT_EQ(s.message(), "injected read fault") << name;
    EXPECT_EQ(e.fail_key_writes(), 0) << name;
    EXPECT_EQ(e.Field0(1), 10) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocolsTest,
                         ::testing::Values(DccKind::kHarmony, DccKind::kAria,
                                           DccKind::kRbc, DccKind::kFabric,
                                           DccKind::kFastFabric),
                         [](const ::testing::TestParamInfo<DccKind>& info) {
                           std::string s(DccKindName(info.param));
                           for (char& c : s) {
                             if (c == '#') c = 'S';
                           }
                           return s;
                         });

// ---- False abort oracle -------------------------------------------------

TEST(FalseAbortOracle, SccOnHandGraph) {
  // 0 -> 1 -> 2 -> 0 (cycle), 3 isolated.
  std::vector<std::vector<int>> adj = {{1}, {2}, {0}, {}};
  std::vector<int> comp_size;
  const std::vector<int> comp = FalseAbortOracle::Scc(adj, &comp_size);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_NE(comp[3], comp[0]);
  EXPECT_EQ(comp_size[comp[0]], 3);
  EXPECT_EQ(comp_size[comp[3]], 1);
}

TEST(FalseAbortOracle, AriaWwAbortIsFalse) {
  // Two blind writers of one key: Aria aborts one, but there is no rw-cycle
  // — a false abort by definition.
  DccConfig cfg;
  cfg.enable_false_abort_oracle = true;
  Engine e(DccKind::kAria, cfg);
  e.Load(1, 0);
  BlockResult r = e.Execute({Req(4, {1, 5}), Req(4, {1, 6})});
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.false_aborts, 1u);
}

TEST(FalseAbortOracle, HarmonyRealCycleAbortIsNotFalse) {
  DccConfig cfg;
  cfg.enable_false_abort_oracle = true;
  Engine e(DccKind::kHarmony, cfg);
  e.Load(1, 0);
  e.Load(2, 0);
  BlockResult r = e.Execute({
      Req(5, {1, 2, 7}),
      Req(5, {2, 1, 9}),
  });
  EXPECT_EQ(r.cc_aborted, 1u);
  EXPECT_EQ(r.false_aborts, 0u);  // genuine rw cycle
}

}  // namespace
}  // namespace harmony
