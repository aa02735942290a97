// Property test of TSDB maintenance. Database::maintain visits only the
// series with something due (Series::drop_due_us / compact_due_us); a
// brute-force reference runs the old walk instead, calling
// Series::drop_before and Series::compact on every series at every step.
// Random sequences of in-order, out-of-order and delayed writes, write
// faults and maintenance steps, at 1, 2 and 4 shards with rollups on and
// off, must leave both with identical series, points, chunks, buckets and
// compaction counts. After every step each series' due bounds are also
// checked against the behaviour they promise: nothing changes one
// microsecond before the bound, something changes at it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tsdb/model.hpp"

namespace sgxo::tsdb {
namespace {

constexpr std::int64_t kSecond = 1'000'000;
constexpr std::int64_t kChunkWidthUs = 10 * kSecond;
const char* const kMeasurements[] = {"sgx/epc", "memory/usage"};

/// Everything a query or a later maintenance step could observe.
std::string dump(const Series& s) {
  std::ostringstream out;
  out << tags_key(s.tags()) << " size=" << s.size() << '\n';
  for (const Series::Chunk& chunk : s.chunks()) {
    out << "chunk [" << chunk.start_us << ',' << chunk.end_us << ')';
    for (const Point& p : chunk.points) {
      out << ' ' << p.time.micros_since_epoch() << ':' << p.value;
    }
    out << '\n';
  }
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    for (const RollupBucket& b : s.rollup(level)) {
      out << 'L' << level << ' ' << b.start_us << " n=" << b.count
          << " sum=" << b.sum << " min=" << b.min << " max=" << b.max
          << " first=" << b.first_time_us << ':' << b.first
          << " last=" << b.last_time_us << ':' << b.last << '\n';
    }
  }
  return out.str();
}

/// The promise behind each due bound, checked on copies of the series:
/// drop_before(h) / compact(s) change the series iff h / s reaches it.
void expect_exact_due_bounds(const Series& s) {
  const std::string before = dump(s);
  const std::int64_t drop_due = s.drop_due_us();
  ASSERT_NE(drop_due, INT64_MAX) << "a stored series always holds data";
  {
    Series early = s;
    early.drop_before(TimePoint::from_micros(drop_due - 1));
    EXPECT_EQ(dump(early), before) << "drop_due_us is late by >= 1 us";
    Series due = s;
    due.drop_before(TimePoint::from_micros(drop_due));
    EXPECT_NE(dump(due), before) << "drop_due_us is early by >= 1 us";
  }
  const std::int64_t compact_due = s.compact_due_us();
  if (compact_due == INT64_MAX) {
    Series never = s;
    EXPECT_EQ(never.compact(INT64_MAX), 0u) << "compact_due_us missed a pair";
    return;
  }
  Series early = s;
  EXPECT_EQ(early.compact(compact_due - 1), 0u)
      << "compact_due_us is late by >= 1 us";
  Series due = s;
  EXPECT_GT(due.compact(compact_due), 0u)
      << "compact_due_us is early by >= 1 us";
}

/// The old maintenance walk over plain Series objects: drop_before then
/// compact on every series, every step.
class Reference {
 public:
  explicit Reference(SeriesOptions options) : options_(options) {}

  void append(const std::string& measurement, const Tags& tags, Point p) {
    auto it = series_.try_emplace({measurement, tags_key(tags)}, tags, options_)
                  .first;
    it->second.append(p);
  }

  void maintain(std::int64_t now_us, std::int64_t retention_us) {
    const TimePoint horizon = TimePoint::from_micros(now_us - retention_us);
    for (auto it = series_.begin(); it != series_.end();) {
      it->second.drop_before(horizon);
      it = it->second.empty() ? series_.erase(it) : std::next(it);
    }
    for (auto& [key, s] : series_) {
      merges_ += s.compact(now_us - options_.chunk_width_us);
    }
  }

  /// Dumps of one measurement's series, in tags_key order.
  [[nodiscard]] std::vector<std::string> dumps(
      const std::string& measurement) const {
    std::vector<std::string> out;
    for (const auto& [key, s] : series_) {
      if (key.first == measurement) out.push_back(dump(s));
    }
    return out;
  }

  [[nodiscard]] std::size_t total_points() const {
    std::size_t total = 0;
    for (const auto& [key, s] : series_) total += s.size();
    return total;
  }
  [[nodiscard]] std::uint64_t merges() const { return merges_; }

 private:
  SeriesOptions options_;
  std::map<std::pair<std::string, std::string>, Series> series_;
  std::uint64_t merges_ = 0;
};

struct Scenario {
  std::size_t shards;
  bool rollups;
  std::int64_t retention_us;
};

std::string name_of(const testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "shards" + std::to_string(s.shards) +
         (s.rollups ? "_rollups" : "_raw") + "_retention" +
         std::to_string(s.retention_us / kSecond) + "s";
}

class MaintenanceProperty : public testing::TestWithParam<Scenario> {};

/// Compares the database with the reference and checks every stored
/// series' due bounds.
void expect_same_state(const Database& db, const Reference& ref,
                       const std::string& where) {
  SCOPED_TRACE(where);
  for (const char* const m : kMeasurements) {
    std::vector<std::string> got;
    db.for_each_series(m, [&](const Series& s) {
      got.push_back(dump(s));
      expect_exact_due_bounds(s);
    });
    ASSERT_EQ(got, ref.dumps(m)) << "measurement " << m;
    EXPECT_EQ(db.series_count(m), got.size());
  }
  EXPECT_EQ(db.total_points(), ref.total_points());
  EXPECT_EQ(db.compactions(), ref.merges());
}

TEST_P(MaintenanceProperty, SkippingWalkMatchesTheFullWalk) {
  const Scenario scenario = GetParam();
  constexpr int kSeeds = 12;
  constexpr int kSteps = 60;
  std::uint64_t total_merges = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng{static_cast<std::uint64_t>(9000 + seed)};
    DatabaseConfig config;
    config.shards = scenario.shards;
    config.chunk_width = Duration::micros(kChunkWidthUs);
    config.rollups = scenario.rollups;
    Database db{config};
    Reference ref{SeriesOptions{kChunkWidthUs, scenario.rollups}};

    // Twelve series over two measurements; samples borrow these tags.
    std::vector<std::pair<std::string, Tags>> pool;
    for (int i = 0; i < 12; ++i) {
      pool.push_back({kMeasurements[i % 2],
                      Tags{{"nodename", "n" + std::to_string(i % 3)},
                           {"pod_name", "p" + std::to_string(i)}}});
    }
    std::vector<std::vector<TagView>> views;
    for (const auto& [m, tags] : pool) views.push_back(tag_views(tags));

    bool global_fault = false;
    std::vector<bool> shard_fault(db.shard_count(), false);
    std::int64_t now = 100 * kSecond;
    // Whole seconds, sometimes one microsecond off, so horizons and
    // sealed_before values land exactly on point times and chunk ends.
    const auto jitter = [&] { return rng.uniform_int(-1, 1); };

    for (int step = 0; step < kSteps; ++step) {
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op <= 4) {
        // A batch: in-order, out-of-order within retention, or delayed
        // past it; occasionally a dense burst into one old chunk.
        const bool burst = rng.bernoulli(0.05);
        const std::int64_t count = burst ? 700 : rng.uniform_int(1, 20);
        const std::size_t burst_series =
            static_cast<std::size_t>(rng.uniform_int(0, 11));
        const std::int64_t burst_at = now - rng.uniform_int(1, 4) * kSecond;
        std::vector<Database::Sample> batch;
        std::vector<std::size_t> series_of;
        for (std::int64_t i = 0; i < count; ++i) {
          const std::size_t s =
              burst ? burst_series
                    : static_cast<std::size_t>(rng.uniform_int(0, 11));
          std::int64_t t = 0;
          const std::int64_t shape = rng.uniform_int(0, 2);
          if (burst) {
            t = burst_at + rng.uniform_int(-2, 2) * kSecond;
          } else if (shape == 0) {
            t = now - rng.uniform_int(0, 2) * kSecond + jitter();
          } else if (shape == 1) {
            t = now - rng.uniform_int(0, scenario.retention_us / kSecond) *
                          kSecond +
                jitter();
          } else {
            t = now - scenario.retention_us -
                rng.uniform_int(0, 30) * kSecond + jitter();
          }
          batch.push_back({pool[s].first, views[s], TimePoint::from_micros(t),
                           static_cast<double>(rng.uniform_int(0, 1000))});
          series_of.push_back(s);
        }
        const std::size_t accepted = db.write_many(batch);
        std::size_t expected = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto& [m, tags] = pool[series_of[i]];
          if (global_fault || shard_fault[db.shard_of(m, tags)]) continue;
          ref.append(m, tags, Point{batch[i].time, batch[i].value});
          ++expected;
        }
        EXPECT_EQ(accepted, expected);
      } else if (op == 5) {
        global_fault = !global_fault;
        db.set_write_fault(global_fault);
      } else if (op == 6) {
        const std::size_t shard = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(db.shard_count()) - 1));
        shard_fault[shard] = !shard_fault[shard];
        db.set_shard_write_fault(shard, shard_fault[shard]);
      } else {
        now += rng.uniform_int(1, 25) * kSecond + jitter();
        db.maintain(TimePoint::from_micros(now),
                    Duration::micros(scenario.retention_us));
        ref.maintain(now, scenario.retention_us);
      }
      expect_same_state(db, ref, "step " + std::to_string(step));
      if (testing::Test::HasFailure()) return;
    }
    total_merges += ref.merges();
  }
  // Long retentions keep sealed chunks around, so compaction must have
  // really run there; short ones drop chunks before they can seal.
  if (scenario.retention_us > 4 * kChunkWidthUs) {
    EXPECT_GT(total_merges, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsRollupsRetention, MaintenanceProperty,
    testing::Values(Scenario{1, true, 15 * kSecond},
                    Scenario{1, true, 95 * kSecond},
                    Scenario{1, false, 15 * kSecond},
                    Scenario{1, false, 95 * kSecond},
                    Scenario{2, true, 15 * kSecond},
                    Scenario{2, false, 95 * kSecond},
                    Scenario{4, true, 95 * kSecond},
                    Scenario{4, false, 15 * kSecond}),
    name_of);

TEST(SeriesDueBounds, CompactDueFollowsTheSizeLimit) {
  // Two 2048-point chunks sit exactly at the merge size limit; one more
  // point in the first pushes that pair past it, so the earliest merge
  // becomes the next pair's.
  Series s{{}, SeriesOptions{kChunkWidthUs, false}};
  const std::size_t half = kCompactTargetPoints / 2;
  for (std::size_t i = 0; i < half; ++i) {
    s.append({TimePoint::from_micros(static_cast<std::int64_t>(i)), 1.0});
    s.append({TimePoint::from_micros(kChunkWidthUs +
                                     static_cast<std::int64_t>(i)),
              1.0});
  }
  EXPECT_EQ(s.compact_due_us(), 2 * kChunkWidthUs);
  s.append({TimePoint::from_micros(2 * kChunkWidthUs), 1.0});  // chunk 3
  EXPECT_EQ(s.compact_due_us(), 2 * kChunkWidthUs);
  s.append({TimePoint::from_micros(5), 1.0});  // chunks 1 + 2: 4097 points
  EXPECT_EQ(s.compact_due_us(), 3 * kChunkWidthUs);
  expect_exact_due_bounds(s);
  EXPECT_EQ(s.compact(3 * kChunkWidthUs), 1u);  // chunks 2 and 3 merge
  EXPECT_EQ(s.chunk_count(), 2u);
  EXPECT_EQ(s.compact_due_us(), INT64_MAX);  // 2049 + 2049 points
  EXPECT_EQ(s.drop_due_us(), 1);
  s.drop_before(TimePoint::from_micros(kChunkWidthUs));
  EXPECT_EQ(s.chunk_count(), 1u);
  EXPECT_EQ(s.compact_due_us(), INT64_MAX);
  EXPECT_EQ(s.drop_due_us(), kChunkWidthUs + 1);
  expect_exact_due_bounds(s);
}

TEST(SeriesDueBounds, BucketsKeepTheDropDueAfterTheirPointsGo) {
  // A 60 s bucket outlives its points by up to one level width: the drop
  // due then comes from the bucket, not from the (later) oldest point.
  Series s{{}, SeriesOptions{kChunkWidthUs, true}};
  s.append({TimePoint::from_micros(5 * kSecond), 1.0});
  s.append({TimePoint::from_micros(65 * kSecond), 1.0});
  EXPECT_EQ(s.drop_due_us(), 5 * kSecond + 1);
  s.drop_before(TimePoint::from_micros(8 * kSecond));
  EXPECT_EQ(s.drop_due_us(), 10 * kSecond);  // 10 s bucket [0, 10 s)
  expect_exact_due_bounds(s);
  s.drop_before(TimePoint::from_micros(10 * kSecond));
  EXPECT_EQ(s.drop_due_us(), 60 * kSecond);  // 60 s bucket [0, 60 s)
  expect_exact_due_bounds(s);
}

TEST(MeasurementDueBounds, RetentionTrimCanBringACompactionDue) {
  // 4096 + 1 points: the pair is over the merge limit from the moment it
  // exists, so no merge is due until retention trims the oldest point;
  // the trim must bring the merge due forward.
  DatabaseConfig config;
  config.chunk_width = Duration::micros(kChunkWidthUs);
  config.rollups = false;
  Database db{config};
  const Tags tags{{"pod_name", "p"}};
  for (std::size_t i = 0; i < kCompactTargetPoints; ++i) {
    ASSERT_TRUE(db.write("m", tags,
                         TimePoint::from_micros(static_cast<std::int64_t>(i)),
                         1.0));
  }
  ASSERT_TRUE(db.write("m", tags, TimePoint::from_micros(kChunkWidthUs), 1.0));
  ASSERT_EQ(db.chunk_count("m"), 2u);
  // Horizon 1 us drops the point at 0; sealed_before (10 s) is too early.
  db.maintain(TimePoint::from_micros(2 * kChunkWidthUs),
              Duration::micros(2 * kChunkWidthUs - 1));
  EXPECT_EQ(db.compactions(), 0u);
  EXPECT_EQ(db.total_points(), kCompactTargetPoints);
  // Same horizon; sealed_before reaches the second chunk's end.
  db.maintain(TimePoint::from_micros(3 * kChunkWidthUs),
              Duration::micros(3 * kChunkWidthUs - 1));
  EXPECT_EQ(db.compactions(), 1u);
  EXPECT_EQ(db.chunk_count("m"), 1u);
}

}  // namespace
}  // namespace sgxo::tsdb
