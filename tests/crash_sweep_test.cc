// Crash-point fault-injection sweep (the durability contract, proven by
// exhaustion): replay a seeded mixed workload against a store and crash at
// EVERY durability barrier the stream crosses — and, for a dense tear
// sweep, with every interesting torn-write prefix of the crashing
// barrier's writes. After each crash the recovered store must hold exactly
// the acknowledged-durable ops (plus the in-flight put only when its
// commit header became durable). Failures minimize to a replayable op
// prefix, same as the differential suite.
//
// Both media run the same sweeps: the established instantiations run on
// ViperStore (simulated PMem), the "Disk" ones on DiskStore (fsync
// barriers, a 4-frame pool); see MediumOfCurrentTest.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "index/registry.h"
#include "store/crash_controller.h"

namespace pieces {
namespace {

constexpr int64_t kNoTear = CrashController::kNoTear;

uint64_t BaseSeed() {
  const char* env = std::getenv("PIECES_DIFF_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0x5eedull;
}

// Small stream: the sweep replays it once per (barrier, tear) pair, so
// total work is quadratic in the put count.
DiffConfig SweepConfig(uint64_t seed_offset) {
  DiffConfig cfg;
  cfg.seed = BaseSeed() + seed_offset;
  cfg.dataset = "ycsb";
  cfg.load_keys = 256;
  cfg.ops = 96;
  return cfg;
}

class CrashSweepTest : public ::testing::TestWithParam<std::string> {};

std::string ParamName(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

// Every barrier, clean power cut (nothing of the crashing barrier's writes
// survives).
TEST_P(CrashSweepTest, EveryPersistPoint) {
  CrashSweepResult res = RunCrashSweep(MediumOfCurrentTest(), GetParam(),
                                       SweepConfig(0), {kNoTear});
  EXPECT_TRUE(res.ok) << res.report;
  // The stream writes, so there are barriers to crash at, and each was hit.
  EXPECT_GT(res.crash_points, 0u);
  EXPECT_EQ(res.runs, res.crash_points);
}

INSTANTIATE_TEST_SUITE_P(AllUpdatable, CrashSweepTest,
                         ::testing::ValuesIn(UpdatableIndexNames()),
                         ParamName);
INSTANTIATE_TEST_SUITE_P(Disk, CrashSweepTest,
                         ::testing::Values("BTree", "ALEX"), ParamName);

// Dense torn-write sweep on two representative indexes (a traditional and
// a learned one). On PMem the header barrier persists exactly the 16-byte
// commit header: tears below, at, and beyond it, including the 8/15-byte
// prefixes that leave seqno+crc plausible but the trailing magic
// incomplete. On disk it rewrites the whole tail page: tears inside the
// first records, and covering one and two whole pages.
class TornWriteSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TornWriteSweepTest, DenseTearOffsets) {
  static_assert(sizeof(RecordHeader) == 16);
  const std::vector<int64_t> tears =
      MediumOfCurrentTest() == "disk"
          ? std::vector<int64_t>{kNoTear, 0, 8, 100, 4096, 8192}
          : std::vector<int64_t>{kNoTear, 1, 7, 8, 15, 16, 23};
  CrashSweepResult res =
      RunCrashSweep(MediumOfCurrentTest(), GetParam(), SweepConfig(1), tears);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.runs, res.crash_points * tears.size());
}

INSTANTIATE_TEST_SUITE_P(Representative, TornWriteSweepTest,
                         ::testing::Values("BTree", "ALEX"), ParamName);
INSTANTIATE_TEST_SUITE_P(Disk, TornWriteSweepTest,
                         ::testing::Values("BTree", "ALEX"), ParamName);

// BulkLoad is one barrier on both media: crash at it untorn and torn
// around every page boundary of the load; the recovered store must hold
// exactly the records wholly inside the durable prefix. Runs against every
// index — bulk load is supported by all 14.
class BulkLoadCrashSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BulkLoadCrashSweepTest, ExactDurablePrefix) {
  // Records are 8 (key) + 24 (value) + 16 (header) = 48 bytes. At each
  // page boundary: one byte short, the boundary, a torn first record, one
  // record less a byte, exactly one, one and a bit, two, and deep inside
  // the page.
  CrashSweepResult res =
      RunBulkLoadCrashSweep(MediumOfCurrentTest(), GetParam(), 256,
                            {-1, 0, 1, 47, 48, 49, 96, 300, 500}, BaseSeed());
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.crash_points, 1u);
  // 256 keys fill 4 pages on either medium (64 slots per PMem page, 85 per
  // 4 KiB disk page): 5 boundaries x 9 offsets, less the negative one,
  // plus the untorn run.
  EXPECT_EQ(res.runs, 5u * 9 - 1 + 1);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, BulkLoadCrashSweepTest,
                         ::testing::ValuesIn(AllIndexNames()), ParamName);
INSTANTIATE_TEST_SUITE_P(Disk, BulkLoadCrashSweepTest,
                         ::testing::ValuesIn(AllIndexNames()), ParamName);

// The differential harness's crash_before_recover mode: a long mixed
// stream with periodic power failures at quiescent points — every
// acknowledged op must survive each outage, on both media.
TEST(CrashBeforeRecoverTest, PeriodicPowerFailuresLoseNothing) {
  for (const std::string medium : {"viper", "disk"}) {
    for (const std::string name : {"BTree", "ALEX"}) {
      DiffConfig cfg;
      cfg.seed = BaseSeed() + 7;
      cfg.load_keys = 2000;
      cfg.ops = 4000;
      cfg.recover_every = 500;
      cfg.crash_before_recover = true;
      DiffResult res = RunStoreDifferential(medium, name, cfg);
      EXPECT_TRUE(res.ok) << medium << " " << name << ":\n" << res.report;
    }
  }
}

}  // namespace
}  // namespace pieces
