// Differential equivalence suite for the sharded TSDB (ISSUE 9 satellite).
//
// The sharding contract is strong: for ANY query, an N-shard database fed
// the same ingest must return bit-identical results to a 1-shard database
// — not approximately equal, identical to the last mantissa bit. This
// holds because every aggregate merges order-independently (count/sum are
// additive over integer-valued samples, min/max are lattice joins,
// first/last break ties lexicographically, quantiles fold into a mergeable
// sketch) and partials merge in shard order.
//
// The suite generates hundreds of seeded random queries over a seeded
// random ingest and compares 1-shard reference results against 2/4/8-shard
// stores, covering: windows straddling chunk boundaries, rollup-eligible
// wide windows next to raw narrow ones, GROUP BY time() at intervals that
// do and do not divide the rollup levels, quantile sketches, the nested
// Listing-1 shape, LIMIT/OFFSET, and post-retention horizons. The forced
// thread fan-out path must agree too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bit-exact result comparison: same rows, same order, same tags, same
/// times, and field doubles identical at the representation level.
void expect_bit_identical(const ql::ResultSet& want, const ql::ResultSet& got,
                          const std::string& context) {
  ASSERT_EQ(want.rows.size(), got.rows.size()) << context;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const ql::Row& a = want.rows[i];
    const ql::Row& b = got.rows[i];
    EXPECT_EQ(a.tags, b.tags) << context << " row " << i;
    EXPECT_EQ(a.time.micros_since_epoch(), b.time.micros_since_epoch())
        << context << " row " << i;
    ASSERT_EQ(a.fields.size(), b.fields.size()) << context << " row " << i;
    auto ita = a.fields.begin();
    auto itb = b.fields.begin();
    for (; ita != a.fields.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first) << context << " row " << i;
      EXPECT_EQ(bits_of(ita->second), bits_of(itb->second))
          << context << " row " << i << " field " << ita->first << " ("
          << ita->second << " vs " << itb->second << ")";
    }
  }
}

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

/// One ingest realization shared by all shard counts: integer-valued
/// samples (double sums stay exact in any order), a 2-minute chunk width
/// so multi-minute windows straddle several chunks, and enough history
/// (an hour at 5 s cadence) that both rollup levels become eligible.
struct StoreSet {
  std::vector<std::unique_ptr<Database>> stores;

  explicit StoreSet(std::uint64_t seed) {
    for (const std::size_t shards : kShardCounts) {
      DatabaseConfig config;
      config.shards = shards;
      config.chunk_width = Duration::seconds(120);
      stores.push_back(std::make_unique<Database>(config));
    }
    Rng rng{seed};
    const int pods = static_cast<int>(rng.uniform_int(6, 12));
    const int nodes = static_cast<int>(rng.uniform_int(2, 4));
    for (int p = 0; p < pods; ++p) {
      const Tags tags{{"pod_name", "p" + std::to_string(p)},
                      {"nodename", "n" + std::to_string(p % nodes)}};
      // Deterministic per-pod phase so series don't all start on the
      // same instant; values are small integers, occasionally zero so
      // `value <> 0` predicates actually filter.
      const std::int64_t phase = rng.uniform_int(0, 4);
      for (std::int64_t t = phase; t <= 3600; t += 5) {
        const double value = static_cast<double>(rng.uniform_int(0, 500));
        for (auto& db : stores) {
          db->write("sgx/epc", tags, at(t), value);
        }
      }
    }
    // A second measurement exercises the multi-measurement shard map.
    for (std::int64_t t = 0; t <= 3600; t += 10) {
      const double value = static_cast<double>(rng.uniform_int(1, 1000));
      for (auto& db : stores) {
        db->write("memory/usage", {{"pod_name", "p0"}}, at(t), value);
      }
    }
  }

  Database& reference() { return *stores[0]; }
};

/// Seeded query generator over the grammar the executor supports. The
/// window/interval palette is chosen to land on every planner path:
/// 25 s → raw; 200 s → 10 s rollup eligible; 1200 s+ → 60 s rollup
/// eligible; interval 50 s divides neither level → raw even when wide.
std::string random_query(Rng& rng) {
  static const char* const kAggs[] = {"MAX",   "MIN",  "SUM", "COUNT",
                                      "MEAN",  "FIRST", "LAST", "P50",
                                      "P95",   "P99"};
  static const std::int64_t kWindows[] = {25, 90, 200, 480, 1200, 3600};
  static const char* const kIntervals[] = {"", "10s", "60s", "50s", "120s"};

  const std::string agg =
      kAggs[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  const std::int64_t window =
      kWindows[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  const std::string interval =
      kIntervals[static_cast<std::size_t>(rng.uniform_int(0, 4))];

  if (rng.bernoulli(0.25)) {
    // The paper's Listing-1 shape: per-pod max rolled up per node.
    return "SELECT SUM(epc) AS epc FROM "
           "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - " +
           std::to_string(window) +
           "s GROUP BY pod_name, nodename) GROUP BY nodename";
  }

  std::string text = "SELECT " + agg + "(value) AS v FROM \"sgx/epc\"";
  std::vector<std::string> where;
  where.push_back("time >= now() - " + std::to_string(window) + "s");
  if (rng.bernoulli(0.3)) {
    where.push_back("value <> 0");  // field predicate → always raw scan
  }
  if (rng.bernoulli(0.15)) {
    where.push_back("value > " + std::to_string(rng.uniform_int(0, 400)));
  }
  if (rng.bernoulli(0.3)) {
    where.push_back("time <= now() - " +
                    std::to_string(rng.uniform_int(0, window / 2)) + "s");
  }
  text += " WHERE " + where[0];
  for (std::size_t i = 1; i < where.size(); ++i) text += " AND " + where[i];

  std::vector<std::string> group;
  if (rng.bernoulli(0.5)) group.push_back("pod_name");
  if (rng.bernoulli(0.3)) group.push_back("nodename");
  if (!interval.empty() && rng.bernoulli(0.6)) {
    group.push_back("time(" + interval + ")");
  }
  if (!group.empty()) {
    text += " GROUP BY " + group[0];
    for (std::size_t i = 1; i < group.size(); ++i) text += ", " + group[i];
  }
  if (rng.bernoulli(0.2)) {
    text += " LIMIT " + std::to_string(rng.uniform_int(1, 8));
    if (rng.bernoulli(0.5)) {
      text += " OFFSET " + std::to_string(rng.uniform_int(1, 3));
    }
  }
  return text;
}

/// Runs `text` on every store and checks the N-shard results (serial and,
/// for the 4-shard store, forced-parallel) against the 1-shard reference.
void check_query(StoreSet& set, const std::string& text, TimePoint now,
                 const std::string& context) {
  const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(text);
  const ql::ResultSet want = prepared.execute(set.reference(), now);
  for (std::size_t i = 1; i < set.stores.size(); ++i) {
    Database& db = *set.stores[i];
    ql::ExecOptions serial;
    serial.mode = ql::ScanMode::kSerial;
    expect_bit_identical(
        want, prepared.execute(db, now, {}, serial),
        context + " [" + std::to_string(db.shard_count()) + " shards] " +
            text);
    if (db.shard_count() == 4) {
      ql::ExecOptions parallel;
      parallel.mode = ql::ScanMode::kParallel;
      expect_bit_identical(
          want, prepared.execute(db, now, {}, parallel),
          context + " [4 shards, threaded] " + text);
    }
  }
}

class TsdbDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TsdbDiffTest, GeneratedQueriesAreBitIdenticalAcrossShardCounts) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  Rng rng{seed * 7919 + 1};
  // Anchor inside the data so both look-back and closed windows hit.
  const TimePoint now = at(3600);
  for (int i = 0; i < 30; ++i) {
    check_query(set, random_query(rng), now,
                "seed=" + std::to_string(seed) + " q=" + std::to_string(i));
  }
}

TEST_P(TsdbDiffTest, EquivalenceHoldsAfterRetentionAndCompaction) {
  const std::uint64_t seed = GetParam();
  StoreSet set{seed};
  // Age the stores: drop everything older than 20 minutes, then compact
  // the sealed remainder. All stores must cut at the same horizon.
  for (auto& db : set.stores) {
    db->maintain(at(3600), Duration::minutes(20));
  }
  Rng rng{seed * 104729 + 3};
  const TimePoint now = at(3600);
  for (int i = 0; i < 12; ++i) {
    check_query(set, random_query(rng), now,
                "post-retention seed=" + std::to_string(seed) +
                    " q=" + std::to_string(i));
  }
  // Windows reaching past the horizon see exactly the surviving points.
  check_query(set, "SELECT COUNT(value) AS n FROM \"sgx/epc\"", now,
              "post-retention full scan seed=" + std::to_string(seed));
}

// 8 ingest realizations × (30 + 12 + 1) queries ≈ 344 generated queries,
// each checked on three shard counts plus the threaded path.
INSTANTIATE_TEST_SUITE_P(Seeds, TsdbDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Targeted planner-path cases the generator may only graze ----------

TEST(TsdbDiffTargeted, ChunkBoundaryStraddlingWindows) {
  StoreSet set{42};
  // chunk_width = 120 s: these windows start/end exactly on, one inside,
  // and one outside chunk edges.
  const TimePoint now = at(3600);
  for (const char* text : {
           "SELECT SUM(value) AS v FROM \"sgx/epc\" WHERE time >= 240s "
           "AND time <= 360s",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" WHERE time >= 239s "
           "AND time <= 361s",
           "SELECT COUNT(value) AS v FROM \"sgx/epc\" WHERE time > 120s "
           "AND time < 600s GROUP BY pod_name",
           "SELECT MEAN(value) AS v FROM \"sgx/epc\" WHERE time >= 115s "
           "AND time <= 125s GROUP BY time(10s)",
       }) {
    check_query(set, text, now, "chunk-boundary");
  }
}

TEST(TsdbDiffTargeted, RollupSelectionAgreesWithRawPath) {
  StoreSet set{43};
  const TimePoint now = at(3600);
  // Wide window, no field predicate, interval divides the level → rollup
  // path; the same window with `value <> 0` forces raw. Both must agree
  // with the reference, and with each other where the data has no zeros
  // filtered (COUNT over nonzero-only series can differ — that is why
  // both variants go through the same reference store).
  for (const char* text : {
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 1200s GROUP BY time(60s), pod_name",
           "SELECT MAX(value) AS v FROM \"sgx/epc\" "
           "WHERE value <> 0 AND time >= now() - 1200s "
           "GROUP BY time(60s), pod_name",
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 3600s GROUP BY nodename",
           "SELECT FIRST(value) AS f, LAST(value) AS l FROM \"sgx/epc\" "
           "WHERE time >= now() - 1200s GROUP BY pod_name",
           "SELECT MEAN(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 200s GROUP BY time(10s)",
       }) {
    check_query(set, text, now, "rollup-selection");
  }
}

TEST(TsdbDiffTargeted, QuantileSketchesMergeDeterministically) {
  StoreSet set{44};
  const TimePoint now = at(3600);
  for (const char* text : {
           "SELECT P50(value) AS med FROM \"sgx/epc\" "
           "WHERE time >= now() - 600s GROUP BY nodename",
           "SELECT P95(value) AS hi, P99(value) AS tail FROM \"sgx/epc\" "
           "WHERE time >= now() - 3600s",
           "SELECT P99(value) AS tail FROM \"sgx/epc\" "
           "WHERE time >= now() - 300s GROUP BY time(60s), pod_name",
       }) {
    check_query(set, text, now, "quantiles");
  }
}

TEST(TsdbDiffTargeted, RetentionErasesDeadSeriesIdentically) {
  // Pods with finite lifetimes: some stop writing well before the
  // retention horizon (their series must be erased), some stop just
  // before it (only a straddling 60 s rollup bucket keeps them) and some
  // are still live. Erasure must leave every shard count with the same
  // series and the same answers.
  std::vector<std::unique_ptr<Database>> stores;
  for (const std::size_t shards : kShardCounts) {
    DatabaseConfig config;
    config.shards = shards;
    config.chunk_width = Duration::seconds(120);
    stores.push_back(std::make_unique<Database>(config));
  }
  const TimePoint now = at(3600);
  const Duration retention = Duration::minutes(20);
  const std::int64_t horizon_s = 3600 - 20 * 60;
  Rng rng{4343};
  std::size_t expected_live = 0;
  for (int p = 0; p < 40; ++p) {
    const Tags tags{{"pod_name", "p" + std::to_string(p)},
                    {"nodename", "n" + std::to_string(p % 3)}};
    const std::int64_t start = rng.uniform_int(0, 3000);
    const std::int64_t end =
        std::min<std::int64_t>(3600, start + rng.uniform_int(30, 1800));
    std::int64_t last = start;
    for (std::int64_t t = start; t <= end; t += 5) {
      const double value = static_cast<double>(rng.uniform_int(0, 500));
      for (auto& db : stores) db->write("sgx/epc", tags, at(t), value);
      last = t;
    }
    // Alive while a point or its 60 s bucket outlasts the horizon.
    if ((last / 60) * 60 + 60 > horizon_s) ++expected_live;
  }
  ASSERT_GT(expected_live, 0u);
  ASSERT_LT(expected_live, 40u);

  for (auto& db : stores) db->maintain(now, retention);
  for (auto& db : stores) {
    EXPECT_EQ(db->series_count("sgx/epc"), expected_live)
        << db->shard_count() << " shards";
  }

  Rng queries{4344};
  std::vector<std::string> battery{"SELECT COUNT(value) AS n FROM \"sgx/epc\"",
                                   "SELECT COUNT(value) AS n FROM \"sgx/epc\" "
                                   "WHERE time >= 0s GROUP BY pod_name"};
  for (int i = 0; i < 30; ++i) battery.push_back(random_query(queries));
  for (const std::string& text : battery) {
    const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(text);
    const ql::ResultSet want = prepared.execute(*stores[0], now);
    for (std::size_t i = 1; i < stores.size(); ++i) {
      for (const ql::ScanMode mode :
           {ql::ScanMode::kSerial, ql::ScanMode::kParallel}) {
        ql::ExecOptions options;
        options.mode = mode;
        expect_bit_identical(
            want, prepared.execute(*stores[i], now, {}, options),
            "dead-series erasure [" +
                std::to_string(stores[i]->shard_count()) + " shards, " +
                (mode == ql::ScanMode::kSerial ? "serial" : "parallel") +
                "] " + text);
      }
    }
  }
}

TEST(TsdbDiffTargeted, ShardStaleReadHorizonFallsBackToRawExactly) {
  // A shard with a read horizon cannot serve rollups (buckets cannot be
  // cut mid-bucket); it must fall back to a raw scan truncated at the
  // horizon. The equivalent truncation on the 1-shard reference is the
  // global horizon.
  DatabaseConfig flat_config;
  flat_config.chunk_width = Duration::seconds(120);
  Database flat{flat_config};
  DatabaseConfig sharded_config = flat_config;
  sharded_config.shards = 4;
  Database sharded{sharded_config};
  Rng rng{4242};
  for (int p = 0; p < 8; ++p) {
    const Tags tags{{"pod_name", "p" + std::to_string(p)}};
    for (std::int64_t t = 0; t <= 2400; t += 5) {
      const double value = static_cast<double>(rng.uniform_int(0, 100));
      flat.write("sgx/epc", tags, at(t), value);
      sharded.write("sgx/epc", tags, at(t), value);
    }
  }
  flat.set_read_horizon(at(1800));
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    sharded.set_shard_read_horizon(s, at(1800));
  }
  for (const char* text : {
           // Rollup-eligible shape — the horizon forces raw on every shard.
           "SELECT SUM(value) AS v FROM \"sgx/epc\" "
           "WHERE time >= now() - 2400s GROUP BY time(60s)",
           "SELECT MAX(value) AS v FROM \"sgx/epc\" GROUP BY pod_name",
       }) {
    const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(text);
    const ql::ResultSet want = prepared.execute(flat, at(2400));
    ql::ExecOptions serial;
    serial.mode = ql::ScanMode::kSerial;
    expect_bit_identical(want, prepared.execute(sharded, at(2400), {}, serial),
                         std::string("stale-read horizon ") + text);
  }
}

TEST(TsdbDiffTargeted, SeriesQuietBeforeTheWindowAreSkippedExactly) {
  // A scan skips, unread, every series whose newest appended point lies
  // before the window start. Check that against stores that never held
  // those series: many stale pods, one pod whose newest point sits exactly
  // on the window start (the bound is inclusive), live pods, and pods that
  // retention left with rollup buckets only. Retention at 3630 s keeps 20
  // minutes, so the horizon is 2430 s: a pod that stopped between 2400 s
  // and 2429 s keeps only its 60 s bucket [2400,2460).
  const TimePoint now = at(3630);
  const Duration retention = Duration::minutes(20);
  struct Pod {
    std::int64_t start;
    std::int64_t last;
  };
  std::vector<Pod> pods;
  Rng rng{4545};
  for (int p = 0; p < 120; ++p) {  // stale: quiet well before 3605 s
    const std::int64_t start = rng.uniform_int(2430, 3000);
    pods.push_back({start, start + rng.uniform_int(0, 300)});
  }
  for (std::int64_t last = 2400; last < 2430; last += 3) {
    pods.push_back({2300, last});  // bucket-only; stale for 2410 s if < it
  }
  const std::string edge_pod = "p" + std::to_string(pods.size());
  pods.push_back({3000, 3605});  // newest point == now - 25 s
  for (int p = 0; p < 6; ++p) pods.push_back({3000 + p, 3630});  // live
  // Every pod writes every 5 s from its start through its last point.
  const auto build = [&](std::size_t shards, std::int64_t min_last) {
    DatabaseConfig config;
    config.shards = shards;
    config.chunk_width = Duration::seconds(120);
    auto db = std::make_unique<Database>(config);
    Rng values{4546};
    for (std::size_t p = 0; p < pods.size(); ++p) {
      const Tags tags{{"pod_name", "p" + std::to_string(p)},
                      {"nodename", "n" + std::to_string(p % 3)}};
      for (std::int64_t t = pods[p].start; t <= pods[p].last; t += 5) {
        const double value = static_cast<double>(values.uniform_int(0, 500));
        if (pods[p].last >= min_last) db->write("sgx/epc", tags, at(t), value);
      }
    }
    db->maintain(now, retention);
    return db;
  };
  const auto reaching = [&](std::int64_t lo) {
    return static_cast<std::size_t>(
        std::count_if(pods.begin(), pods.end(),
                      [&](const Pod& pod) { return pod.last >= lo; }));
  };

  struct Case {
    std::string text;
    std::int64_t lo;  // the scan's window start, in seconds
  };
  const std::vector<Case> cases{
      // The scheduler's Listing-1 slide: raw, 25 s.
      {"SELECT MAX(value) AS usage FROM \"sgx/epc\" WHERE value <> 0 AND "
       "time >= now() - 25s GROUP BY pod_name, nodename",
       3605},
      {"SELECT COUNT(value) AS n FROM \"sgx/epc\" "
       "WHERE time >= now() - 25s GROUP BY pod_name",
       3605},
      // Rollup-eligible, cut mid-bucket: buckets from 2460 s, raw edge
      // [2410,2459] where retention left no raw point.
      {"SELECT SUM(value) AS v, COUNT(value) AS n FROM \"sgx/epc\" "
       "WHERE time >= 2410s GROUP BY pod_name",
       2410},
      // Rollup-eligible, bucket-aligned: the bucket-only pods' [2400,2460)
      // buckets are folded.
      {"SELECT SUM(value) AS v, COUNT(value) AS n FROM \"sgx/epc\" "
       "WHERE time >= 2400s GROUP BY pod_name",
       2400},
  };
  const std::unique_ptr<Database> reference = build(1, INT64_MIN);
  for (const Case& c : cases) {
    const ql::PreparedQuery prepared = ql::PreparedQuery::prepare(c.text);
    const ql::ResultSet want = prepared.execute(*reference, now);
    ASSERT_FALSE(want.rows.empty()) << c.text;
    for (const std::size_t shards : kShardCounts) {
      const std::unique_ptr<Database> full = build(shards, INT64_MIN);
      const std::unique_ptr<Database> without_stale = build(shards, c.lo);
      const std::string context =
          "[" + std::to_string(shards) + " shards] " + c.text;
      for (const Database* db : {full.get(), without_stale.get()}) {
        ql::ExecStats stats;
        ql::ExecOptions options;
        options.mode = ql::ScanMode::kSerial;
        options.stats = &stats;
        expect_bit_identical(want, prepared.execute(*db, now, {}, options),
                             context);
        // Only the series reaching the window start were visited.
        std::size_t visited = 0;
        for (const ql::ShardScanStats& shard : stats.shards) {
          visited += shard.series;
        }
        EXPECT_EQ(visited, reaching(c.lo)) << context;
      }
    }
  }
  // The inclusive bound: the pod whose newest point is exactly now - 25 s
  // is in the Listing-1 window with that one point.
  const ql::ResultSet edge =
      ql::PreparedQuery::prepare(cases[1].text).execute(*reference, now);
  EXPECT_DOUBLE_EQ(edge.value_for("pod_name", edge_pod, "n", 0.0), 1.0);
  // Bucket-only pods: all ten are folded from their [2400,2460) bucket
  // when the window starts on it; none has a raw point left for the cut
  // window's edge, so that one returns no row for them.
  const auto rows_of = [&](const std::string& text) {
    return ql::PreparedQuery::prepare(text).execute(*reference, now).rows;
  };
  EXPECT_EQ(rows_of(cases[3].text).size(), reaching(2400));
  EXPECT_EQ(rows_of(cases[2].text).size(), reaching(2430));
}

}  // namespace
}  // namespace sgxo::tsdb
