// Microbenchmark of the sharded TSDB: ingest and query-latency curves
// across shard counts {1, 2, 4, 8} at >= 1M samples.
//
// Ingest is one timed write_many of the whole sample stream. Each query
// row records wall_us, the median host wall time of the shard-by-shard
// scan, and shard_points, the raw points (or rollup buckets) every shard
// folded — a count, the same on every run — which shows how the work
// splits across shards.
//
// Three query shapes cover the planner paths: the paper's Listing-1
// nested query over a 25 s window (raw, narrow), a 1 h MAX per node per
// minute (served from the 60 s rollup level), and a 1 h P99 (quantile →
// always raw, the worst case for wide windows).
//
// Writes BENCH_tsdb.json (or BENCH_tsdb_smoke.json with --smoke, which
// also re-parses the file and fails unless the wide raw scan's 4-shard
// points sum to the 1-shard count, every shard folds some of them and
// none folds more than half).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "tsdb/model.hpp"
#include "tsdb/ql/executor.hpp"
#include "tsdb/ql/prepared.hpp"

namespace {

using namespace sgxo;
using tsdb::Database;
using tsdb::DatabaseConfig;
using tsdb::Tags;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

struct BenchConfig {
  std::size_t series = 2048;
  std::size_t points_per_series = 512;  // 2048 x 512 = 1,048,576 samples
  std::int64_t cadence_s = 5;
  int query_runs = 9;
  bool smoke = false;

  [[nodiscard]] std::size_t samples() const {
    return series * points_per_series;
  }
};

TimePoint at(std::int64_t seconds) {
  return TimePoint::epoch() + Duration::seconds(seconds);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct IngestResult {
  std::size_t shards = 0;
  std::size_t samples = 0;
  double wall_ms = 0.0;  // one write_many of the whole stream

  [[nodiscard]] double samples_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(samples) / (wall_ms / 1e3)
                         : 0.0;
  }
};

struct QueryResult {
  std::string query;
  std::size_t shards = 0;
  std::size_t samples = 0;
  int runs = 0;
  double wall_us = 0.0;  // median wall time
  std::vector<std::size_t> shard_points;  // points folded per shard
  std::int64_t rollup_level_us = 0;
};

/// The identical sample stream every store ingests: integer values,
/// pods spread over 32 nodes, one point per series per cadence tick.
/// Samples borrow their tags, so the stream owns them; it is filled in
/// place and never moved.
struct SampleStream {
  std::vector<Tags> tags;                          // one per series
  std::vector<std::vector<tsdb::TagView>> views;   // tag_views(tags[s])
  std::vector<Database::Sample> samples;

  SampleStream() = default;
  SampleStream(const SampleStream&) = delete;
  SampleStream& operator=(const SampleStream&) = delete;
};

void make_samples(const BenchConfig& config, SampleStream& stream) {
  Rng rng{20260808};
  stream.tags.reserve(config.series);
  stream.views.reserve(config.series);
  for (std::size_t s = 0; s < config.series; ++s) {
    stream.tags.push_back({{"pod_name", "p" + std::to_string(s)},
                           {"nodename", "n" + std::to_string(s % 32)}});
    stream.views.push_back(tsdb::tag_views(stream.tags.back()));
  }
  stream.samples.reserve(config.samples());
  for (std::size_t i = 0; i < config.points_per_series; ++i) {
    const TimePoint t = at(static_cast<std::int64_t>(i) * config.cadence_s);
    for (std::size_t s = 0; s < config.series; ++s) {
      stream.samples.push_back({"sgx/epc", stream.views[s], t,
                                static_cast<double>(rng.uniform_int(1, 4096))});
    }
  }
}

IngestResult ingest(Database& db, const SampleStream& stream) {
  IngestResult r;
  r.shards = db.shard_count();
  r.samples = stream.samples.size();
  const double start = now_us();
  const std::size_t accepted = db.write_many(stream.samples);
  r.wall_ms = (now_us() - start) / 1e3;
  if (accepted != stream.samples.size()) {
    std::cerr << "warning: ingest dropped samples\n";
  }
  return r;
}

QueryResult run_query(Database& db, const std::string& name,
                      const std::string& text, TimePoint now, int runs,
                      std::size_t samples) {
  const tsdb::ql::PreparedQuery prepared =
      tsdb::ql::PreparedQuery::prepare(text);
  QueryResult r;
  r.query = name;
  r.shards = db.shard_count();
  r.samples = samples;
  r.runs = runs;
  std::vector<double> wall;
  for (int i = 0; i < runs; ++i) {
    tsdb::ql::ExecStats stats;
    tsdb::ql::ExecOptions options;
    options.stats = &stats;
    const double start = now_us();
    const tsdb::ql::ResultSet result = prepared.execute(db, now, {}, options);
    wall.push_back(now_us() - start);
    if (result.rows.empty()) std::cerr << "warning: empty result\n";
    r.shard_points.clear();
    for (const tsdb::ql::ShardScanStats& shard : stats.shards) {
      r.shard_points.push_back(shard.points);
    }
    r.rollup_level_us = stats.rollup_level_us;
  }
  std::sort(wall.begin(), wall.end());
  r.wall_us = wall[wall.size() / 2];
  return r;
}

void write_json(const std::string& path, const BenchConfig& config,
                const std::vector<IngestResult>& ingests,
                const std::vector<QueryResult>& queries) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_tsdb\",\n"
      << "  \"metric\": \"sharded ingest + query: host wall time "
         "(wall_us) and the points each shard folded (shard_points)\",\n"
      << "  \"samples\": " << config.samples() << ",\n  \"ingest\": [\n";
  for (std::size_t i = 0; i < ingests.size(); ++i) {
    const IngestResult& r = ingests[i];
    out << "    {\"shards\": " << r.shards << ", \"samples\": " << r.samples
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"samples_per_sec\": " << r.samples_per_sec() << "}"
        << (i + 1 < ingests.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"query\": [\n";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = queries[i];
    out << "    {\"query\": \"" << r.query << "\", \"shards\": " << r.shards
        << ", \"runs\": " << r.runs << ", \"wall_us\": " << r.wall_us
        << ", \"shard_points\": [";
    for (std::size_t s = 0; s < r.shard_points.size(); ++s) {
      out << (s > 0 ? ", " : "") << r.shard_points[s];
    }
    out << "], \"rollup_level_us\": " << r.rollup_level_us << "}"
        << (i + 1 < queries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Line-based re-parse of the emitted JSON (the regression guard must not
/// trust the in-memory numbers it just computed — it checks the artifact):
/// the shard_points array of one query row, empty when the row is missing.
std::vector<std::size_t> shard_points_from_json(const std::string& path,
                                                const std::string& query,
                                                std::size_t shards) {
  std::ifstream in(path);
  std::string line;
  const std::string query_needle = "\"query\": \"" + query + "\"";
  const std::string shard_needle =
      "\"shards\": " + std::to_string(shards) + ",";
  const std::string key = "\"shard_points\": [";
  while (std::getline(in, line)) {
    if (line.find(query_needle) == std::string::npos) continue;
    if (line.find(shard_needle) == std::string::npos) continue;
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    std::istringstream list(
        line.substr(pos + key.size(), line.find(']', pos) - pos - key.size()));
    std::vector<std::size_t> points;
    std::string item;
    while (std::getline(list, item, ',')) points.push_back(std::stoull(item));
    return points;
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      config.smoke = true;
      config.series = 256;
      config.points_per_series = 64;
      config.query_runs = 5;
    }
  }
  const std::vector<std::size_t> shard_counts =
      config.smoke ? std::vector<std::size_t>{1, 4}
                   : std::vector<std::size_t>(std::begin(kShardCounts),
                                              std::end(kShardCounts));

  SampleStream stream;
  make_samples(config, stream);
  const TimePoint now = at(
      static_cast<std::int64_t>(config.points_per_series - 1) *
      config.cadence_s);

  // The three planner paths; windows chosen so the rollup query clears
  // the 16-bucket eligibility floor even in smoke mode (60 s level needs
  // width >= 960 s; smoke history = 64 * 5 s = 320 s → use the 10 s level
  // there).
  const std::string listing1 =
      "SELECT SUM(epc) AS epc FROM "
      "(SELECT MAX(value) AS epc FROM \"sgx/epc\" "
      "WHERE value <> 0 AND time >= now() - 25s "
      "GROUP BY pod_name, nodename) GROUP BY nodename";
  const std::string rollup =
      config.smoke ? "SELECT MAX(value) AS v FROM \"sgx/epc\" "
                     "WHERE time >= now() - 300s GROUP BY time(10s), nodename"
                   : "SELECT MAX(value) AS v FROM \"sgx/epc\" "
                     "WHERE time >= now() - 1h GROUP BY time(60s), nodename";
  const std::string quantile =
      config.smoke ? "SELECT P99(value) AS tail FROM \"sgx/epc\" "
                     "WHERE time >= now() - 300s GROUP BY nodename"
                   : "SELECT P99(value) AS tail FROM \"sgx/epc\" "
                     "WHERE time >= now() - 1h GROUP BY nodename";

  std::vector<IngestResult> ingests;
  std::vector<QueryResult> queries;
  for (const std::size_t shards : shard_counts) {
    DatabaseConfig db_config;
    db_config.shards = shards;
    Database db{db_config};
    ingests.push_back(ingest(db, stream));
    queries.push_back(run_query(db, "listing1_25s", listing1, now,
                                config.query_runs, stream.samples.size()));
    queries.push_back(run_query(db, "rollup_wide", rollup, now,
                                config.query_runs, stream.samples.size()));
    queries.push_back(run_query(db, "p99_wide", quantile, now,
                                config.query_runs, stream.samples.size()));
  }

  Table ingest_table({"shards", "samples", "wall [ms]", "samples/s"});
  for (const IngestResult& r : ingests) {
    ingest_table.add_row({std::to_string(r.shards), std::to_string(r.samples),
                          fmt_double(r.wall_ms, 1),
                          fmt_double(r.samples_per_sec(), 0)});
  }
  ingest_table.print(std::cout);

  Table query_table({"query", "shards", "wall [us]", "largest shard [points]",
                     "rollup level"});
  for (const QueryResult& r : queries) {
    std::size_t total = 0;
    std::size_t largest = 0;
    for (const std::size_t points : r.shard_points) {
      total += points;
      largest = std::max(largest, points);
    }
    query_table.add_row(
        {r.query, std::to_string(r.shards), fmt_double(r.wall_us, 1),
         std::to_string(largest) + " of " + std::to_string(total),
         r.rollup_level_us == 0
             ? std::string("raw")
             : std::to_string(r.rollup_level_us / 1000000) + "s"});
  }
  std::cout << "\n";
  query_table.print(std::cout);

  const std::string path =
      config.smoke ? "BENCH_tsdb_smoke.json" : "BENCH_tsdb.json";
  write_json(path, config, ingests, queries);
  std::cout << "\nwrote " << path << "\n";

  if (config.smoke) {
    // Regression guard (ctest `bench` label), read back from the artifact:
    // on the wide raw scan — the shape sharding exists for — the 4 shards
    // fold exactly the 1-shard points between them, every shard folds
    // some, and no shard folds more than half. Counts, not timings, so
    // the verdict does not depend on host load.
    const std::vector<std::size_t> one =
        shard_points_from_json(path, "p99_wide", 1);
    const std::vector<std::size_t> four =
        shard_points_from_json(path, "p99_wide", 4);
    if (one.size() != 1 || four.size() != 4) {
      std::cerr << "smoke guard: missing datapoints in " << path << "\n";
      return 1;
    }
    std::size_t sum = 0;
    std::size_t smallest = four.front();
    std::size_t largest = 0;
    for (const std::size_t points : four) {
      sum += points;
      smallest = std::min(smallest, points);
      largest = std::max(largest, points);
    }
    std::cout << "smoke guard: p99_wide points 1-shard=" << one.front()
              << " 4-shard sum=" << sum << " smallest=" << smallest
              << " largest=" << largest << "\n";
    if (sum != one.front()) {
      std::cerr << "smoke guard: 4-shard points do not sum to the 1-shard "
                   "count\n";
      return 1;
    }
    if (smallest == 0) {
      std::cerr << "smoke guard: a shard folded no points\n";
      return 1;
    }
    if (2 * largest > sum) {
      std::cerr << "smoke guard: one shard folded more than half of the "
                   "points\n";
      return 1;
    }
  }
  return 0;
}
