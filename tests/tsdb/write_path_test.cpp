// The TSDB has one write path: write_many over samples that borrow their
// measurement and tags, with write(measurement, Tags) a one-sample call
// of it. These tests feed the same samples through batches and through
// write() and require identical series (tags, key, points, rollups,
// shard) and identical ClusterMetrics answers at 1, 2 and 4 shards, and
// pin down what happens to tags passed out of key order: they are
// rejected before any sample of the batch lands.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/metrics_view.hpp"
#include "tsdb/model.hpp"

namespace sgxo::tsdb {
namespace {

constexpr const char* kEpc = "sgx/epc";
constexpr const char* kMemory = "memory/usage";

TimePoint at_us(std::int64_t us) { return TimePoint::from_micros(us); }

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

/// Every series of a measurement, keyed "shard|tags_key", with its dump.
std::map<std::string, std::string> snapshot(const Database& db,
                                            const std::string& measurement) {
  std::map<std::string, std::string> out;
  for (std::size_t shard = 0; shard < db.shard_count(); ++shard) {
    db.for_each_series_in_shard(
        measurement, shard, [&](const std::string& key, const Series& s) {
          EXPECT_EQ(key, tags_key(s.tags()));
          EXPECT_EQ(db.shard_of(measurement, s.tags()), shard);
          out[std::to_string(shard) + "|" + key] = dump(s);
        });
  }
  return out;
}

std::string render(const std::vector<core::ClusterMetrics::PodUsage>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << row.node << '/' << row.pod << '=' << row.usage.count() << '\n';
  }
  return out.str();
}

std::string render(const std::map<cluster::NodeName, Bytes>& rows) {
  std::ostringstream out;
  for (const auto& [node, usage] : rows) {
    out << node << '=' << usage.count() << '\n';
  }
  return out.str();
}

/// One owned sample: the stream both paths are fed from.
struct OwnedSample {
  std::string measurement;
  Tags tags;
  TimePoint time;
  double value = 0.0;
};

/// Heapster- and probe-shaped samples every 10 s, with some delivered
/// late (out of order) and some pods coming and going.
std::vector<OwnedSample> make_stream(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<OwnedSample> out;
  for (std::int64_t tick = 1; tick <= 60; ++tick) {
    for (int pod = 0; pod < 12; ++pod) {
      if (rng.bernoulli(0.2)) continue;
      const std::string node = "node-" + std::to_string(pod % 4);
      const std::string name = "pod-" + std::to_string(pod);
      std::int64_t t = tick * 10'000'000;
      if (rng.bernoulli(0.1)) t -= rng.uniform_int(1, 40) * 1'000'000;
      out.push_back({kEpc,
                     {{"nodename", node}, {"pod_name", name}},
                     at_us(t),
                     static_cast<double>(rng.uniform_int(0, 64) * 4096)});
      out.push_back({kMemory,
                     {{"nodename", node}, {"pod_name", name}, {"type", "pod"}},
                     at_us(t),
                     static_cast<double>(rng.uniform_int(1, 512) << 20)});
    }
  }
  return out;
}

class WritePathEquivalence : public testing::TestWithParam<std::size_t> {};

TEST_P(WritePathEquivalence, BatchesAndTagMapWritesBuildIdenticalSeries) {
  const std::size_t shards = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<OwnedSample> stream = make_stream(seed);
    Database batched{shards};
    Database one_by_one{shards};

    // Batches of random size, each sample borrowing from `stream`.
    Rng rng{seed + 100};
    std::vector<std::vector<TagView>> views;
    views.reserve(stream.size());
    for (const OwnedSample& s : stream) views.push_back(tag_views(s.tags));
    std::size_t next = 0;
    while (next < stream.size()) {
      const std::size_t size = std::min<std::size_t>(
          stream.size() - next,
          static_cast<std::size_t>(rng.uniform_int(1, 40)));
      std::vector<Database::Sample> batch;
      for (std::size_t i = next; i < next + size; ++i) {
        batch.push_back({stream[i].measurement, views[i], stream[i].time,
                         stream[i].value});
      }
      EXPECT_EQ(batched.write_many(batch), size);
      next += size;
    }
    for (const OwnedSample& s : stream) {
      EXPECT_TRUE(one_by_one.write(s.measurement, s.tags, s.time, s.value));
    }

    for (const char* const m : {kEpc, kMemory}) {
      EXPECT_EQ(snapshot(batched, m), snapshot(one_by_one, m));
      EXPECT_FALSE(snapshot(batched, m).empty());
    }
    EXPECT_EQ(batched.total_points(), stream.size());
    EXPECT_EQ(one_by_one.total_points(), stream.size());

    const core::ClusterMetrics a{batched};
    const core::ClusterMetrics b{one_by_one};
    for (std::int64_t s = 100; s <= 600; s += 50) {
      const TimePoint now = at_us(s * 1'000'000);
      EXPECT_EQ(render(a.epc_per_pod(now)), render(b.epc_per_pod(now)));
      EXPECT_EQ(render(a.memory_per_pod(now)), render(b.memory_per_pod(now)));
      EXPECT_EQ(render(a.epc_per_node(now)), render(b.epc_per_node(now)));
      EXPECT_EQ(render(a.memory_per_node(now)),
                render(b.memory_per_node(now)));
      EXPECT_EQ(a.staleness(now), b.staleness(now));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, WritePathEquivalence,
                         testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}));

TEST(WritePath, RejectsTagsOutOfKeyOrderBeforeAnySampleLands) {
  Database db{2};
  const std::array<TagView, 2> ordered{{{"nodename", "n"}, {"pod_name", "p"}}};
  const std::array<TagView, 2> swapped{{{"pod_name", "p"}, {"nodename", "n"}}};
  const std::array<TagView, 2> repeated{{{"pod_name", "p"}, {"pod_name", "q"}}};
  const std::vector<Database::Sample> with_swapped{
      {"m", ordered, at_us(1), 1.0}, {"m", swapped, at_us(2), 2.0}};
  EXPECT_THROW(db.write_many(with_swapped), ContractViolation);
  const std::vector<Database::Sample> with_repeated{
      {"m", ordered, at_us(1), 1.0}, {"m", repeated, at_us(2), 2.0}};
  EXPECT_THROW(db.write_many(with_repeated), ContractViolation);
  EXPECT_EQ(db.total_points(), 0u);
  EXPECT_FALSE(db.has_measurement("m"));

  const std::vector<Database::Sample> valid{{"m", ordered, at_us(1), 1.0}};
  EXPECT_EQ(db.write_many(valid), 1u);
  EXPECT_EQ(db.series_count("m"), 1u);
}

TEST(WritePath, RejectsAnEmptyMeasurementName) {
  Database db;
  EXPECT_THROW(db.write("", {{"pod_name", "p"}}, at_us(1), 1.0),
               ContractViolation);
  EXPECT_EQ(db.total_points(), 0u);
}

TEST(WritePath, SeriesOwnTheirTagsOnceTheWriteReturns) {
  // The borrowed strings die right after the write; the stored series
  // must not point into them.
  Database db;
  {
    std::string node = "node-with-a-long-name-beyond-any-small-buffer";
    std::string pod = "pod-with-a-long-name-beyond-any-small-buffer";
    std::string measurement = "memory/usage/with/a/long/name";
    const std::array<TagView, 2> tags{{{"nodename", node}, {"pod_name", pod}}};
    const Database::Sample sample{measurement, tags, at_us(5), 7.0};
    ASSERT_EQ(db.write_many({&sample, 1}), 1u);
    node.assign(node.size(), 'x');
    pod.assign(pod.size(), 'x');
    measurement.assign(measurement.size(), 'x');
  }
  ASSERT_TRUE(db.has_measurement("memory/usage/with/a/long/name"));
  std::vector<std::string> keys;
  db.for_each_series("memory/usage/with/a/long/name",
                     [&](const Series& s) { keys.push_back(tags_key(s.tags())); });
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0],
            "nodename=node-with-a-long-name-beyond-any-small-buffer,"
            "pod_name=pod-with-a-long-name-beyond-any-small-buffer");
}

}  // namespace
}  // namespace sgxo::tsdb
