#include "tsdb/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb {
namespace {

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

TEST(Tags, CanonicalKey) {
  EXPECT_EQ(tags_key({}), "");
  EXPECT_EQ(tags_key({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
}

TEST(Series, AppendsInOrder) {
  Series s{{{"k", "v"}}};
  s.append({at(1), 1.0});
  s.append({at(2), 2.0});
  s.append({at(3), 3.0});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(s.points()[2].value, 3.0);
}

TEST(Series, OutOfOrderAppendsSorted) {
  Series s{{}};
  s.append({at(3), 3.0});
  s.append({at(1), 1.0});
  s.append({at(2), 2.0});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points()[0].time, at(1));
  EXPECT_EQ(s.points()[1].time, at(2));
  EXPECT_EQ(s.points()[2].time, at(3));
}

TEST(Series, WindowQueryInclusive) {
  Series s{{}};
  for (int i = 1; i <= 10; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  const auto window = s.in_window(at(3), at(6));
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front().value, 3.0);
  EXPECT_DOUBLE_EQ(window.back().value, 6.0);
}

TEST(Series, EmptyWindow) {
  Series s{{}};
  s.append({at(10), 1.0});
  EXPECT_TRUE(s.in_window(at(1), at(5)).empty());
}

TEST(Series, DropBeforeRemovesOldPoints) {
  Series s{{}};
  for (int i = 1; i <= 5; ++i) {
    s.append({at(i), static_cast<double>(i)});
  }
  EXPECT_EQ(s.drop_before(at(3)), 2u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.points().front().time, at(3));
}

/// Measurement::append with the tags_key the write path would pass.
void append(Measurement& m, const Tags& tags, Point p) {
  m.append(tags_key(tags), tag_views(tags), p);
}

TEST(Measurement, SeriesIdentityByTags) {
  Measurement m{"m"};
  append(m, {{"pod", "a"}}, {at(1), 1.0});
  append(m, {{"pod", "b"}}, {at(1), 2.0});
  const Series* a = m.find_series({{"pod", "a"}});
  append(m, {{"pod", "a"}}, {at(2), 3.0});
  const Series* a_again = m.find_series({{"pod", "a"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, m.find_series({{"pod", "b"}}));
  EXPECT_EQ(a->size(), 2u);
  EXPECT_EQ(m.series_count(), 2u);
  EXPECT_EQ(m.point_count(), 3u);
}

TEST(Measurement, FindSeries) {
  Measurement m{"m"};
  append(m, {{"pod", "a"}}, {at(1), 1.0});
  EXPECT_NE(m.find_series({{"pod", "a"}}), nullptr);
  EXPECT_EQ(m.find_series({{"pod", "zzz"}}), nullptr);
}

TEST(Measurement, NewestIsTheNewestHeldPoint) {
  Measurement m{"m"};
  EXPECT_FALSE(m.newest().has_value());
  append(m, {{"pod", "a"}}, {at(30), 1.0});
  append(m, {{"pod", "b"}}, {at(50), 1.0});
  append(m, {{"pod", "a"}}, {at(40), 1.0});  // out of order
  EXPECT_EQ(m.newest(), at(50));
  m.drop_before(at(45));  // drops both points of a; b keeps the newest
  EXPECT_EQ(m.newest(), at(50));
  m.drop_before(at(51));  // the newest point goes only with every other
  EXPECT_EQ(m.point_count(), 0u);
  EXPECT_FALSE(m.newest().has_value());
}

TEST(Database, WriteCreatesMeasurementsAndSeries) {
  Database db;
  db.write("sgx/epc", {{"pod_name", "p1"}, {"nodename", "n1"}}, at(1), 42.0);
  db.write("sgx/epc", {{"pod_name", "p2"}, {"nodename", "n1"}}, at(1), 7.0);
  db.write("memory/usage", {{"pod_name", "p1"}}, at(1), 1.0);
  ASSERT_TRUE(db.has_measurement("sgx/epc"));
  EXPECT_EQ(db.series_count("sgx/epc"), 2u);
  EXPECT_FALSE(db.has_measurement("nothing"));
  EXPECT_EQ(db.total_points(), 3u);
  EXPECT_EQ(db.points_in("sgx/epc"), 2u);
  EXPECT_EQ(db.measurement_names(),
            (std::vector<std::string>{"memory/usage", "sgx/epc"}));
}

TEST(Database, RejectsEmptyMeasurementName) {
  Database db;
  EXPECT_THROW(db.write("", {}, at(1), 1.0), ContractViolation);
}

TEST(Database, RetentionDropsOldPoints) {
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.write("m", {{"k", "v"}}, at(i), static_cast<double>(i));
  }
  const std::size_t dropped =
      db.enforce_retention(at(100), Duration::seconds(30));
  EXPECT_EQ(dropped, 70u);
  EXPECT_EQ(db.total_points(), 30u);
}

TEST(Database, RetentionRequiresPositiveWindow) {
  Database db;
  EXPECT_THROW(db.enforce_retention(at(10), Duration{}), ContractViolation);
}

// --- Time-partitioned chunks -------------------------------------------

TEST(Series, PartitionsIntoAlignedChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 250; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Points span [0, 240] → chunks [0,100), [100,200), [200,300).
  EXPECT_EQ(s.chunk_count(), 3u);
  EXPECT_EQ(s.size(), 25u);
  const auto& chunks = s.chunks();
  EXPECT_EQ(chunks[0].start_us, 0);
  EXPECT_EQ(chunks[0].end_us, 100'000'000);
  EXPECT_EQ(chunks[1].start_us, 100'000'000);
  EXPECT_EQ(chunks[2].start_us, 200'000'000);
}

TEST(Series, OutOfOrderAcrossChunkBoundary) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  s.append({at(150), 150.0});
  s.append({at(50), 50.0});   // lands in an earlier, newly created chunk
  s.append({at(120), 120.0});  // lands mid-chunk, before 150
  ASSERT_EQ(s.size(), 3u);
  const auto flat = s.points();
  EXPECT_EQ(flat[0].time, at(50));
  EXPECT_EQ(flat[1].time, at(120));
  EXPECT_EQ(flat[2].time, at(150));
  EXPECT_EQ(s.chunk_count(), 2u);
}

TEST(Series, WindowStraddlesChunkBoundary) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  const auto window = s.in_window(at(90), at(210));
  ASSERT_EQ(window.size(), 13u);  // 90,100,...,210
  EXPECT_EQ(window.front().time, at(90));
  EXPECT_EQ(window.back().time, at(210));
}

TEST(Series, DropBeforeAcrossChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 300; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  // Horizon 150 s: chunk [0,100) drops whole, [100,200) trims 100..140.
  EXPECT_EQ(s.drop_before(at(150)), 15u);
  EXPECT_EQ(s.size(), 15u);
  EXPECT_EQ(s.points().front().time, at(150));
  EXPECT_EQ(s.chunk_count(), 2u);
}

TEST(Series, DropBeforeErasesChunkItEmpties) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 400; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  ASSERT_EQ(s.chunk_count(), 4u);
  // Horizon 195 s: [0,100) drops whole and the trim of [100,200) removes
  // every point of it, so that chunk goes too instead of lingering empty.
  EXPECT_EQ(s.drop_before(at(195)), 20u);
  EXPECT_EQ(s.chunk_count(), 2u);
  EXPECT_EQ(s.size(), 20u);
  const auto flat = s.points();
  ASSERT_EQ(flat.size(), 20u);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].time, at(200 + 10 * static_cast<std::int64_t>(i)));
    EXPECT_DOUBLE_EQ(flat[i].value, 200.0 + 10.0 * static_cast<double>(i));
  }
  EXPECT_FALSE(s.newest(at(199)).has_value());
  EXPECT_EQ(s.newest(std::nullopt), at(390));
}

TEST(Series, EmptyOnlyWithNoPointsAndNoRollupBuckets) {
  Series s{{}};
  EXPECT_TRUE(s.empty());
  s.append({at(65), 1.0});
  EXPECT_FALSE(s.empty());
  // Horizon 100 s: the point and its 10 s bucket [60,70) expire, but the
  // 60 s bucket [60,120) still straddles the horizon.
  s.drop_before(at(100));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.chunk_count(), 0u);
  EXPECT_TRUE(s.rollup(0).empty());
  ASSERT_EQ(s.rollup(1).size(), 1u);
  EXPECT_FALSE(s.empty());
  s.drop_before(at(120));
  EXPECT_TRUE(s.empty());
}

TEST(Database, CompactionThatMergesNothingLeavesChunksAlone) {
  DatabaseConfig config;
  config.chunk_width = Duration::seconds(60);
  Database db{config};
  for (int i = 0; i < 120; i += 5) {
    db.write("m", {{"k", "v"}}, at(i), static_cast<double>(i));
  }
  ASSERT_EQ(db.chunk_count("m"), 2u);
  // At 120 s only [0,60) is sealed: no adjacent sealed pair to merge.
  EXPECT_EQ(db.compact(at(120)), 0u);
  EXPECT_EQ(db.chunk_count("m"), 2u);
  EXPECT_EQ(db.compactions(), 0u);
  std::vector<std::pair<std::int64_t, std::int64_t>> boundaries;
  db.for_each_series("m", [&](const Series& series) {
    for (const Series::Chunk& chunk : series.chunks()) {
      boundaries.emplace_back(chunk.start_us, chunk.end_us);
    }
  });
  const std::int64_t width = Duration::seconds(60).micros_count();
  EXPECT_EQ(boundaries,
            (std::vector<std::pair<std::int64_t, std::int64_t>>{
                {0, width}, {width, 2 * width}}));
  EXPECT_EQ(db.total_points(), 24u);
}

TEST(Series, CompactMergesSealedChunks) {
  SeriesOptions options;
  options.chunk_width_us = Duration::seconds(100).micros_count();
  Series s{{}, options};
  for (int i = 0; i < 400; i += 10) {
    s.append({at(i), static_cast<double>(i)});
  }
  ASSERT_EQ(s.chunk_count(), 4u);
  // Everything before 300 s is sealed → the first three chunks merge; the
  // live chunk [300,400) is left alone.
  const std::size_t merged =
      s.compact(Duration::seconds(300).micros_count());
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(s.chunk_count(), 2u);
  EXPECT_EQ(s.size(), 40u);
  const auto flat = s.points();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(flat[static_cast<std::size_t>(i)].time, at(i * 10));
  }
}

// --- Rollups -----------------------------------------------------------

TEST(Series, RollupBucketsAggregateCorrectly) {
  Series s{{}};
  // 10 s level: points at 1..9 s fall into bucket [0,10); 11..19 s into
  // [10,20).
  s.append({at(1), 4.0});
  s.append({at(5), 2.0});
  s.append({at(9), 6.0});
  s.append({at(11), 10.0});
  const auto& level0 = s.rollup(0);
  ASSERT_EQ(level0.size(), 2u);
  EXPECT_EQ(level0[0].start_us, 0);
  EXPECT_EQ(level0[0].count, 3u);
  EXPECT_DOUBLE_EQ(level0[0].sum, 12.0);
  EXPECT_DOUBLE_EQ(level0[0].min, 2.0);
  EXPECT_DOUBLE_EQ(level0[0].max, 6.0);
  EXPECT_DOUBLE_EQ(level0[0].first, 4.0);
  EXPECT_DOUBLE_EQ(level0[0].last, 6.0);
  EXPECT_EQ(level0[1].start_us, 10'000'000);
  EXPECT_EQ(level0[1].count, 1u);
}

TEST(Series, RollupHandlesOutOfOrderIngest) {
  Series s{{}};
  s.append({at(9), 9.0});
  s.append({at(1), 1.0});  // earlier point in the same bucket
  const auto& level0 = s.rollup(0);
  ASSERT_EQ(level0.size(), 1u);
  EXPECT_DOUBLE_EQ(level0[0].first, 1.0);
  EXPECT_EQ(level0[0].first_time_us, Duration::seconds(1).micros_count());
  EXPECT_DOUBLE_EQ(level0[0].last, 9.0);
}

TEST(Series, RollupsDisabledWhenConfigured) {
  SeriesOptions options;
  options.rollups = false;
  Series s{{}, options};
  s.append({at(1), 1.0});
  EXPECT_TRUE(s.rollup(0).empty());
  EXPECT_TRUE(s.rollup(1).empty());
}

TEST(Series, RetentionDropsOnlyFullyExpiredRollupBuckets) {
  Series s{{}};
  s.append({at(5), 5.0});
  s.append({at(15), 15.0});
  s.append({at(25), 25.0});
  ASSERT_EQ(s.rollup(0).size(), 3u);
  // Horizon 12 s: bucket [0,10) is fully expired; [10,20) straddles the
  // horizon and must survive (queries under the horizon fall back to raw).
  s.drop_before(at(12));
  ASSERT_EQ(s.rollup(0).size(), 2u);
  EXPECT_EQ(s.rollup(0)[0].start_us, 10'000'000);
}

// --- Sharded database --------------------------------------------------

TEST(Database, ShardRoutingIsStableAndInRange) {
  Database db{4};
  EXPECT_EQ(db.shard_count(), 4u);
  const Tags tags{{"pod_name", "p1"}};
  const std::size_t shard = db.shard_of("sgx/epc", tags);
  EXPECT_LT(shard, 4u);
  EXPECT_EQ(db.shard_of("sgx/epc", tags), shard);  // deterministic
}

TEST(Database, ShardedWritesAreVisibleAcrossAllReads) {
  Database db{4};
  for (int i = 0; i < 64; ++i) {
    db.write("m", {{"s", std::to_string(i)}}, at(i), static_cast<double>(i));
  }
  EXPECT_EQ(db.total_points(), 64u);
  EXPECT_EQ(db.series_count("m"), 64u);
  std::size_t seen = 0;
  db.for_each_series("m", [&](const Series& series) { seen += series.size(); });
  EXPECT_EQ(seen, 64u);
}

TEST(Database, ForEachSeriesMergesShardsInCanonicalOrder) {
  Database sharded{4};
  Database flat{1};
  for (int i = 0; i < 32; ++i) {
    const Tags tags{{"s", std::to_string(i)}};
    sharded.write("m", tags, at(i), 1.0);
    flat.write("m", tags, at(i), 1.0);
  }
  std::vector<std::string> sharded_keys;
  sharded.for_each_series("m", [&](const Series& series) {
    sharded_keys.push_back(tags_key(series.tags()));
  });
  std::vector<std::string> flat_keys;
  flat.for_each_series("m", [&](const Series& series) {
    flat_keys.push_back(tags_key(series.tags()));
  });
  EXPECT_EQ(sharded_keys, flat_keys);
  EXPECT_TRUE(std::is_sorted(sharded_keys.begin(), sharded_keys.end()));
}

TEST(Database, WriteManyGroupsByShardAndCounts) {
  Database db{4};
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(std::to_string(i));
  std::vector<std::array<TagView, 1>> tags;
  for (const std::string& id : ids) tags.push_back({{{"s", id}}});
  std::vector<Database::Sample> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back({"m", tags[i % 5], at(i), static_cast<double>(i)});
  }
  EXPECT_EQ(db.write_many(batch), 20u);
  EXPECT_EQ(db.total_points(), 20u);
}

TEST(Database, PerShardWriteFaultOnlyDropsThatShard) {
  Database db{4};
  // Find two tag sets landing on different shards.
  const Tags a{{"s", "0"}};
  Tags b;
  for (int i = 1; i < 64; ++i) {
    b = Tags{{"s", std::to_string(i)}};
    if (db.shard_of("m", b) != db.shard_of("m", a)) break;
  }
  ASSERT_NE(db.shard_of("m", a), db.shard_of("m", b));
  db.set_shard_write_fault(db.shard_of("m", a), true);
  EXPECT_FALSE(db.write("m", a, at(1), 1.0));
  EXPECT_TRUE(db.write("m", b, at(1), 1.0));
  EXPECT_EQ(db.shard_failed_writes(db.shard_of("m", a)), 1u);
  EXPECT_EQ(db.failed_writes(), 1u);
  db.set_shard_write_fault(db.shard_of("m", a), false);
  EXPECT_TRUE(db.write("m", a, at(2), 2.0));
  EXPECT_EQ(db.total_points(), 2u);
}

TEST(Database, EffectiveReadHorizonIsMinOfGlobalAndShard) {
  Database db{2};
  EXPECT_FALSE(db.effective_read_horizon(0).has_value());
  db.set_shard_read_horizon(0, at(100));
  ASSERT_TRUE(db.effective_read_horizon(0).has_value());
  EXPECT_EQ(*db.effective_read_horizon(0), at(100));
  EXPECT_FALSE(db.effective_read_horizon(1).has_value());
  db.set_read_horizon(at(50));
  EXPECT_EQ(*db.effective_read_horizon(0), at(50));
  EXPECT_EQ(*db.effective_read_horizon(1), at(50));
  db.set_read_horizon(at(200));
  EXPECT_EQ(*db.effective_read_horizon(0), at(100));
  db.set_shard_read_horizon(0, std::nullopt);
  EXPECT_EQ(*db.effective_read_horizon(0), at(200));
}

TEST(Database, ShardedRetentionMatchesFlat) {
  Database sharded{4};
  Database flat{1};
  for (int i = 0; i < 100; ++i) {
    const Tags tags{{"s", std::to_string(i % 7)}};
    sharded.write("m", tags, at(i), static_cast<double>(i));
    flat.write("m", tags, at(i), static_cast<double>(i));
  }
  const std::size_t a =
      sharded.enforce_retention(at(100), Duration::seconds(30));
  const std::size_t b = flat.enforce_retention(at(100), Duration::seconds(30));
  EXPECT_EQ(a, b);
  EXPECT_EQ(sharded.total_points(), flat.total_points());
}

// --- Dead-series erasure ------------------------------------------------

// Raw points at 60/70/80 s share the 60 s rollup bucket [60,120). With a
// one-hour retention, now = 3690 s puts the horizon at 90 s: every raw
// point has expired but that bucket still straddles the horizon.
class DeadSeriesErasure : public ::testing::Test {
 protected:
  static constexpr std::int64_t kRetentionS = 3600;

  DeadSeriesErasure() {
    for (const std::int64_t t : {60, 70, 80}) {
      db_.write("m", kTags, at(t), static_cast<double>(t));
    }
  }

  void age_to(std::int64_t horizon_s) {
    db_.maintain(at(horizon_s + kRetentionS), Duration::seconds(kRetentionS));
  }

  const Tags kTags{{"pod", "gone"}};
  Database db_;
};

TEST_F(DeadSeriesErasure, SeriesWithOnlyAStraddlingRollupBucketSurvives) {
  age_to(90);
  EXPECT_EQ(db_.total_points(), 0u);
  EXPECT_EQ(db_.chunk_count("m"), 0u);
  EXPECT_EQ(db_.series_count("m"), 1u);
  EXPECT_FALSE(db_.newest_time("m").has_value());
}

TEST_F(DeadSeriesErasure, SurvivingBucketStillAnswersWideWindowQuery) {
  age_to(90);
  ql::ExecStats stats;
  ql::ExecOptions options;
  options.stats = &stats;
  const ql::ResultSet result =
      ql::PreparedQuery::prepare(
          "SELECT COUNT(value) AS n FROM \"m\" WHERE time >= 0s "
          "GROUP BY pod")
          .execute(db_, at(90 + kRetentionS), {}, options);
  EXPECT_EQ(stats.rollup_level_us, kRollupLevelsUs[1]);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value_for("pod", "gone", "n"), 3.0);
}

TEST_F(DeadSeriesErasure, SeriesIsErasedOnceItsLastBucketExpires) {
  age_to(90);
  const std::size_t points = db_.total_points();
  age_to(120);
  EXPECT_EQ(db_.series_count("m"), 0u);
  EXPECT_EQ(db_.total_points(), points);
  const ql::ResultSet result = ql::query(
      "SELECT COUNT(value) AS n FROM \"m\" WHERE time >= 0s",
      db_, at(120 + kRetentionS));
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(DeadSeriesErasure, WritingTheSameTagsAgainRecreatesTheSeries) {
  age_to(120);
  ASSERT_EQ(db_.series_count("m"), 0u);
  const TimePoint now = at(120 + kRetentionS);
  ASSERT_TRUE(db_.write("m", kTags, now, 7.0));
  EXPECT_EQ(db_.series_count("m"), 1u);
  EXPECT_EQ(db_.total_points(), 1u);
  const ql::ResultSet result = ql::query(
      "SELECT LAST(value) AS v FROM \"m\" GROUP BY pod", db_, now);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value_for("pod", "gone", "v"), 7.0);
}

TEST(Database, RetentionErasesOnlyDeadSeries) {
  DatabaseConfig config;
  config.shards = 4;
  config.rollups = false;  // no buckets: a series dies with its last point
  Database db{config};
  for (int pod = 0; pod < 16; ++pod) {
    const std::int64_t last = pod % 2 == 0 ? 50 : 200;
    for (std::int64_t t = 0; t <= last; t += 10) {
      db.write("m", {{"pod", std::to_string(pod)}}, at(t), 1.0);
    }
  }
  ASSERT_EQ(db.series_count("m"), 16u);
  db.enforce_retention(at(160), Duration::seconds(60));  // horizon 100 s
  EXPECT_EQ(db.series_count("m"), 8u);
  std::size_t seen = 0;
  db.for_each_series("m", [&](const Series& series) {
    EXPECT_FALSE(series.empty());
    ++seen;
  });
  EXPECT_EQ(seen, 8u);
  EXPECT_EQ(db.total_points(), 8u * 11u);  // 100..200 s per live pod
}

TEST(Database, MaintainCompactsSealedChunks) {
  DatabaseConfig config;
  config.shards = 2;
  config.chunk_width = Duration::seconds(60);
  Database db{config};
  for (int i = 0; i < 600; i += 5) {
    db.write("m", {{"k", "v"}}, at(i), static_cast<double>(i));
  }
  const std::size_t chunks_before = db.chunk_count("m");
  EXPECT_GT(chunks_before, 4u);
  db.maintain(at(600), Duration::hours(1));
  EXPECT_LT(db.chunk_count("m"), chunks_before);
  EXPECT_GT(db.compactions(), 0u);
  EXPECT_EQ(db.total_points(), 120u);  // retention dropped nothing
}

// --- newest_time against a brute-force maximum ---------------------------

/// The newest point of `measurement` a reader may see, found the slow way:
/// every point of every series, each shard cut at its effective horizon.
std::optional<TimePoint> brute_newest(const Database& db,
                                      const std::string& measurement) {
  std::optional<TimePoint> newest;
  for (std::size_t shard = 0; shard < db.shard_count(); ++shard) {
    const std::optional<TimePoint> horizon = db.effective_read_horizon(shard);
    db.for_each_series_in_shard(
        measurement, shard, [&](const std::string&, const Series& series) {
          for (const Point& p : series.points()) {
            if (horizon.has_value() && p.time > *horizon) continue;
            if (!newest.has_value() || p.time > *newest) newest = p.time;
          }
        });
  }
  return newest;
}

TEST(Database, NewestTimeMatchesBruteForceMaximum) {
  std::size_t emptied = 0;  // checks where retention had emptied "m"
  std::size_t frozen = 0;   // checks made under some read horizon
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      DatabaseConfig config;
      config.shards = shards;
      config.chunk_width = Duration::seconds(60);
      Database db{config};
      Rng rng{seed * 31 + shards};
      std::int64_t clock = 0;
      for (int step = 0; step < 300; ++step) {
        const auto op = rng.uniform_int(0, 99);
        const Tags tags{{"pod", "p" + std::to_string(rng.uniform_int(0, 9))}};
        const auto random_shard = [&] {
          return static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(db.shard_count()) - 1));
        };
        if (op < 50) {  // in-order write
          clock += rng.uniform_int(0, 10);
          db.write("m", tags, at(clock), 1.0);
        } else if (op < 70) {  // delayed, out-of-order write
          db.write("m", tags, at(clock - rng.uniform_int(1, 300)), 1.0);
        } else if (op < 75) {
          db.write("other", tags, at(clock + rng.uniform_int(0, 50)), 1.0);
        } else if (op < 80) {
          db.set_write_fault(rng.bernoulli(0.3));
        } else if (op < 85) {
          db.set_shard_write_fault(random_shard(), rng.bernoulli(0.4));
        } else if (op < 89) {
          db.set_read_horizon(rng.bernoulli(0.5)
                                  ? std::optional<TimePoint>{}
                                  : at(clock - rng.uniform_int(0, 200)));
        } else if (op < 93) {
          db.set_shard_read_horizon(
              random_shard(), rng.bernoulli(0.5)
                                  ? std::optional<TimePoint>{}
                                  : at(clock - rng.uniform_int(0, 200)));
        } else if (op < 98) {  // retention
          db.maintain(at(clock), Duration::seconds(rng.uniform_int(30, 400)));
        } else {  // a long quiet spell: retention empties everything
          clock += 10'000;
          db.maintain(at(clock), Duration::seconds(60));
        }
        const std::string context = "shards=" + std::to_string(shards) +
                                    " seed=" + std::to_string(seed) +
                                    " step=" + std::to_string(step);
        const std::optional<TimePoint> want = brute_newest(db, "m");
        ASSERT_EQ(db.newest_time("m"), want) << context;
        ASSERT_EQ(db.newest_time("other"), brute_newest(db, "other"))
            << context;
        ASSERT_FALSE(db.newest_time("unknown").has_value()) << context;
        if (!want.has_value() && db.has_measurement("m") &&
            db.points_in("m") == 0) {
          ++emptied;
        }
        bool any_horizon = db.read_horizon().has_value();
        for (std::size_t s = 0; s < db.shard_count(); ++s) {
          any_horizon = any_horizon || db.shard_read_horizon(s).has_value();
        }
        if (any_horizon) ++frozen;
      }
    }
  }
  EXPECT_GT(emptied, 0u);
  EXPECT_GT(frozen, 0u);
}

}  // namespace
}  // namespace sgxo::tsdb
