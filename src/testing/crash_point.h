#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace harmony {

namespace obs {
class EventLog;
}

namespace testing {

/// Crash-point hooks for the torture runner (tools/torture.cc): named
/// points compiled into the seal / append / checkpoint / truncate paths
/// where a process death is most likely to expose a recovery bug. A point
/// is armed by the environment variable
///
///   HARMONY_CRASH="<point>:<hit>[:<frac>]"
///
/// parsed lazily on the first hit: the <hit>-th execution of <point>
/// SIGKILLs the process (kernel-delivered, no atexit, no flush — exactly
/// the crash model the recovery invariant promises to survive). <frac>
/// only applies to *.torn_write points: the caller persists that fraction
/// of its pending write before the kill, modelling a torn record.
///
/// Disarmed cost is one relaxed atomic load (the macro below), so the
/// hooks stay compiled into release builds and the torture child needs no
/// special build. Tests can arm a point in-process with a replaceable
/// handler instead of a real SIGKILL (ArmCrashPointForTest).
///
/// The catalogue (kept in sync with docs/TESTING.md and torture.cc):
inline constexpr const char* kCrashPointCatalogue[] = {
    "chain.append.before_write",    // BlockStore::Append, record not yet on disk
    "chain.append.torn_write",      // BlockStore::Append, record prefix on disk
    "chain.append.after_write",     // BlockStore::Append, record durable
    "chain.truncate.before_rename", // BlockStore::TruncateBefore, temp written
    "chain.truncate.after_rename",  // BlockStore::TruncateBefore, log replaced
    "chain.manifest.before_rename", // CheckpointManifest::Write, temp written
    "replica.checkpoint.before_manifest",  // state flushed, manifest stale
    "replica.checkpoint.after_manifest",   // checkpoint fully committed
    "storage.checkpoint.after_journal",    // journal durable, pages unflushed
    "storage.flush.mid",            // BufferPool::FlushAll, after a write call
    "ingest.seal.before_deliver",   // block sealed, never delivered
    "repl.leader.before_fanout",    // block committed locally, not yet shipped
    "repl.follower.before_apply",   // REPLICATE decoded, block not yet applied
    "repl.follower.before_ack",     // block applied, ack not yet sent
};
inline constexpr size_t kNumCrashPoints =
    sizeof(kCrashPointCatalogue) / sizeof(kCrashPointCatalogue[0]);

/// True once a crash point is armed (env or test). The macro's fast path.
extern std::atomic<bool> g_crash_points_armed;

/// Slow path of HARMONY_CRASH_POINT: counts a hit of `name`; if this is the
/// scheduled hit of the armed point, kills the process (or invokes the test
/// handler) and does not return (returns, under a test handler).
void CrashPointHit(const char* name);

/// Torn-write variant: returns true when this hit of `name` is the
/// scheduled one, with `*frac` set to the fraction of the pending write to
/// persist; the caller writes that prefix and then calls CrashNow().
bool CrashPointTorn(const char* name, double* frac);

/// SIGKILLs the current process (test handler, if armed via
/// ArmCrashPointForTest, runs instead).
void CrashNow();

/// In-process arming for unit tests: `handler` runs instead of SIGKILL.
void ArmCrashPointForTest(const std::string& name, uint64_t hit,
                          std::function<void()> handler, double frac = 1.0);
void DisarmCrashPoints();

/// Structured-event sink for arming (obs/events.h): crash points are
/// process-global while event logs are per instance, so the most recently
/// opened HarmonyBC registers its log here (and clears it on destruction
/// iff still registered — a later instance's registration wins). Arming a
/// point emits a crash_point_arm event into the current sink.
void SetCrashPointEventLog(obs::EventLog* events);
/// Clears the sink iff it still points at `events` (compare-and-swap).
void ClearCrashPointEventLog(obs::EventLog* events);

/// Hits observed for `name` since arming (test introspection).
uint64_t CrashPointHits(const std::string& name);

}  // namespace testing
}  // namespace harmony

/// Marks a crash point. Disarmed cost: one relaxed load + predictable branch.
#define HARMONY_CRASH_POINT(name)                                         \
  do {                                                                    \
    if (__builtin_expect(                                                 \
            ::harmony::testing::g_crash_points_armed.load(                \
                std::memory_order_relaxed),                               \
            0)) {                                                         \
      ::harmony::testing::CrashPointHit(name);                            \
    }                                                                     \
  } while (0)
