// Chaos property harness, part 2: the full randomized sweep — 500 seeded
// fault scenarios over the Borg-trace fixture, sharded into ten cases so
// ctest shows progress and failures localize. Each scenario asserts the
// three chaos invariants (EPC never over-committed on surviving nodes, no
// pod lost or double-placed, reconvergence after every fault heals); any
// failure message carries the seed and the full fault plan, which replays
// the run bit-for-bit (see ChaosDeterminism in chaos_test.cpp).
//
// Labeled chaos: run explicitly with `ctest -L chaos`.
#include <gtest/gtest.h>

#include "chaos_harness.hpp"

namespace sgxo::exp {
namespace {

void run_shard(std::uint64_t first_seed, std::uint64_t last_seed) {
  chaos::sweep(first_seed, last_seed, {}, /*rerun_every_50th=*/false);
}

TEST(ChaosFullSweep, Seeds001To050) { run_shard(1, 50); }
TEST(ChaosFullSweep, Seeds051To100) { run_shard(51, 100); }
TEST(ChaosFullSweep, Seeds101To150) { run_shard(101, 150); }
TEST(ChaosFullSweep, Seeds151To200) { run_shard(151, 200); }
TEST(ChaosFullSweep, Seeds201To250) { run_shard(201, 250); }
TEST(ChaosFullSweep, Seeds251To300) { run_shard(251, 300); }
TEST(ChaosFullSweep, Seeds301To350) { run_shard(301, 350); }
TEST(ChaosFullSweep, Seeds351To400) { run_shard(351, 400); }
TEST(ChaosFullSweep, Seeds401To450) { run_shard(401, 450); }
TEST(ChaosFullSweep, Seeds451To500) { run_shard(451, 500); }

}  // namespace
}  // namespace sgxo::exp
