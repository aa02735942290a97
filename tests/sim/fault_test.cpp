#include "sim/fault.hpp"

#include <gtest/gtest.h>

namespace sgxo::sim {
namespace {

/// A config under which every fault kind's prerequisites hold.
RandomPlanConfig full_config() {
  RandomPlanConfig config;
  config.crash_targets = {"node-1"};
  config.probe_targets = {"sgx-1"};
  config.scheduler_targets = {"sched-0"};
  config.tsdb_shard_targets = {"0"};
  config.attestation = true;
  return config;
}

TEST(DowngradeForConfig, SchedulerCrashWithoutTargetsBecomesHeapsterDropout) {
  RandomPlanConfig config = full_config();
  config.scheduler_targets.clear();
  EXPECT_EQ(downgrade_for_config(FaultKind::kSchedulerCrash, config),
            FaultKind::kHeapsterDropout);
}

TEST(DowngradeForConfig, ShardKindsWithoutShardTargetsBecomeDatabaseWide) {
  RandomPlanConfig config = full_config();
  config.tsdb_shard_targets.clear();
  EXPECT_EQ(downgrade_for_config(FaultKind::kTsdbShardWriteError, config),
            FaultKind::kTsdbWriteError);
  EXPECT_EQ(downgrade_for_config(FaultKind::kTsdbShardStaleReads, config),
            FaultKind::kTsdbStaleReads);
}

TEST(DowngradeForConfig, AttestationKindsWithoutAttestationFallBack) {
  RandomPlanConfig config = full_config();
  config.attestation = false;
  EXPECT_EQ(
      downgrade_for_config(FaultKind::kAttestationVerifierOutage, config),
      FaultKind::kHeapsterDropout);
  EXPECT_EQ(downgrade_for_config(FaultKind::kReattestationStorm, config),
            FaultKind::kHeapsterDropout);
  EXPECT_EQ(downgrade_for_config(FaultKind::kAttestationSlowVerify, config),
            FaultKind::kSampleDelay);
}

TEST(DowngradeForConfig, EveryKindIsItselfWhenPrerequisitesHold) {
  const RandomPlanConfig config = full_config();
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    EXPECT_EQ(downgrade_for_config(kind, config), kind) << to_string(kind);
  }
}

TEST(DowngradeForConfig, FallbacksNeedNoPrerequisites) {
  // Downgrading resolves in one step, so every kind a draw can fall back
  // to must be available even in an empty config.
  const RandomPlanConfig empty;
  for (int i = 0; i < kFaultKindCount; ++i) {
    const FaultKind fallback =
        downgrade_for_config(static_cast<FaultKind>(i), empty);
    EXPECT_EQ(downgrade_for_config(fallback, empty), fallback)
        << to_string(static_cast<FaultKind>(i));
  }
}

}  // namespace
}  // namespace sgxo::sim
