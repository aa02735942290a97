// Chaos property harness, part 3: the shared-state sweep — 500 seeded
// fault scenarios with four *active* scheduler replicas (Omega-style:
// sharded pending queues, work stealing, per-pod conditional binds) and
// scheduler crashes mixed into every random plan. The invariants are the
// standard three (EPC never over-committed, no pod lost or double-placed,
// reconvergence after the last heal); optimistic concurrency must
// preserve them while replicas race each other and die mid-cycle. Every 50th seed also runs twice to pin bit-identical
// same-seed determinism under the multi-scheduler path.
//
// Labeled chaos-shared: run with `ctest -L chaos-shared` or the
// chaos-shared preset.
#include <gtest/gtest.h>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  chaos::ScenarioConfig config;
  config.scheduler_replicas = 4;
  config.ha_faults = true;
  chaos::sweep(first_seed, last_seed, config, /*rerun_every_50th=*/true,
               [](std::uint64_t seed, const chaos::ScenarioResult& result) {
                 // The fleet actually scheduled.
                 EXPECT_GT(result.fleet_bound, 0u) << "seed " << seed;
               });
}

TEST(ChaosSharedSweep, Seeds001To050) { run_shard(1, 50); }
TEST(ChaosSharedSweep, Seeds051To100) { run_shard(51, 100); }
TEST(ChaosSharedSweep, Seeds101To150) { run_shard(101, 150); }
TEST(ChaosSharedSweep, Seeds151To200) { run_shard(151, 200); }
TEST(ChaosSharedSweep, Seeds201To250) { run_shard(201, 250); }
TEST(ChaosSharedSweep, Seeds251To300) { run_shard(251, 300); }
TEST(ChaosSharedSweep, Seeds301To350) { run_shard(301, 350); }
TEST(ChaosSharedSweep, Seeds351To400) { run_shard(351, 400); }
TEST(ChaosSharedSweep, Seeds401To450) { run_shard(401, 450); }
TEST(ChaosSharedSweep, Seeds451To500) { run_shard(451, 500); }

}  // namespace
}  // namespace sgxo::exp
