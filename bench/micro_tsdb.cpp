// Microbenchmark of the sharded TSDB: ingest and query-latency curves
// across shard counts {1, 2, 4, 8} at >= 1M samples.
//
// Each query is measured twice, interleaved run by run: wall_us is the
// serial scan (ScanMode::kSerial) and parallel_wall_us the thread fan-out
// (ScanMode::kParallel, one task per shard). Next to those measurements
// the bench reports a parallel-makespan model, which shows shard scaling
// even on a single CPU: every per-shard cost is measured serially
// (ExecStats), and
//
//   modeled_us = wall_us - sum(shard scan_us) + max(shard scan_us)
//
// i.e. the serial run with all but the slowest shard's scan removed —
// what an N-thread fan-out would pay with free, perfectly overlapping
// threads. Ingest is modeled the same way: the batch is partitioned by
// shard routing and the makespan is the slowest shard's write time.
//
// Three query shapes cover the planner paths: the paper's Listing-1
// nested query over a 25 s window (raw, narrow), a 1 h MAX per node per
// minute (served from the 60 s rollup level), and a 1 h P99 (quantile →
// always raw, the worst case for wide windows).
//
// Writes BENCH_tsdb.json (or BENCH_tsdb_smoke.json with --smoke, which
// also re-parses the file and fails if the 4-shard modeled query
// throughput dropped below the 1-shard baseline).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
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
  double serial_ms = 0.0;    // sum of per-shard write times
  double makespan_ms = 0.0;  // slowest shard (modeled parallel ingest)

  [[nodiscard]] double samples_per_sec() const {
    return makespan_ms > 0.0
               ? static_cast<double>(samples) / (makespan_ms / 1e3)
               : 0.0;
  }
};

struct QueryResult {
  std::string query;
  std::size_t shards = 0;
  std::size_t samples = 0;
  int runs = 0;
  double wall_us = 0.0;           // median serial wall time
  double parallel_wall_us = 0.0;  // median measured kParallel wall time
  double modeled_us = 0.0;        // median parallel-makespan latency
  std::int64_t rollup_level_us = 0;

  [[nodiscard]] double modeled_qps() const {
    return modeled_us > 0.0 ? 1e6 / modeled_us : 0.0;
  }
};

/// The identical sample stream every store ingests: integer values,
/// pods spread over 32 nodes, one point per series per cadence tick.
/// Samples borrow their tags, so the stream owns them; it is filled in
/// place and never moved.
struct SampleStream {
  std::vector<Tags> tags;                          // one per series
  std::vector<std::vector<tsdb::TagView>> views;   // tag_views(tags[s])
  std::vector<std::size_t> series;                 // series of each sample
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
  stream.series.reserve(config.samples());
  stream.samples.reserve(config.samples());
  for (std::size_t i = 0; i < config.points_per_series; ++i) {
    const TimePoint t = at(static_cast<std::int64_t>(i) * config.cadence_s);
    for (std::size_t s = 0; s < config.series; ++s) {
      stream.series.push_back(s);
      stream.samples.push_back({"sgx/epc", stream.views[s], t,
                                static_cast<double>(rng.uniform_int(1, 4096))});
    }
  }
}

/// Ingests the stream, timing each shard's partition separately: the
/// modeled parallel ingest is the slowest shard's write time.
IngestResult ingest(Database& db, const SampleStream& stream) {
  IngestResult r;
  r.shards = db.shard_count();
  r.samples = stream.samples.size();
  std::vector<std::size_t> shard_of_series;
  for (const Tags& tags : stream.tags) {
    shard_of_series.push_back(db.shard_of("sgx/epc", tags));
  }
  std::vector<std::vector<Database::Sample>> by_shard(db.shard_count());
  for (std::size_t i = 0; i < stream.samples.size(); ++i) {
    by_shard[shard_of_series[stream.series[i]]].push_back(stream.samples[i]);
  }
  double max_ms = 0.0;
  double sum_ms = 0.0;
  for (const auto& batch : by_shard) {
    const double start = now_us();
    const std::size_t accepted = db.write_many(batch);
    const double ms = (now_us() - start) / 1e3;
    if (accepted != batch.size()) {
      std::cerr << "warning: ingest dropped samples\n";
    }
    sum_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  r.serial_ms = sum_ms;
  r.makespan_ms = max_ms;
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
  std::vector<double> parallel_wall;
  std::vector<double> modeled;
  for (int i = 0; i < runs; ++i) {
    tsdb::ql::ExecOptions parallel;
    parallel.mode = tsdb::ql::ScanMode::kParallel;
    const double parallel_start = now_us();
    const tsdb::ql::ResultSet fanned = prepared.execute(db, now, {}, parallel);
    parallel_wall.push_back(now_us() - parallel_start);
    if (fanned.rows.empty()) std::cerr << "warning: empty result\n";

    tsdb::ql::ExecStats stats;
    tsdb::ql::ExecOptions options;
    options.mode = tsdb::ql::ScanMode::kSerial;
    options.stats = &stats;
    const double start = now_us();
    const tsdb::ql::ResultSet result = prepared.execute(db, now, {}, options);
    const double wall_us = now_us() - start;
    if (result.rows.empty()) std::cerr << "warning: empty result\n";
    double sum_scan = 0.0;
    double max_scan = 0.0;
    for (const tsdb::ql::ShardScanStats& shard : stats.shards) {
      sum_scan += shard.scan_us;
      max_scan = std::max(max_scan, shard.scan_us);
    }
    wall.push_back(wall_us);
    modeled.push_back(wall_us - sum_scan + max_scan);
    r.rollup_level_us = stats.rollup_level_us;
  }
  std::sort(wall.begin(), wall.end());
  std::sort(parallel_wall.begin(), parallel_wall.end());
  std::sort(modeled.begin(), modeled.end());
  r.wall_us = wall[wall.size() / 2];
  r.parallel_wall_us = parallel_wall[parallel_wall.size() / 2];
  r.modeled_us = modeled[modeled.size() / 2];
  return r;
}

void write_json(const std::string& path, const BenchConfig& config,
                const std::vector<IngestResult>& ingests,
                const std::vector<QueryResult>& queries) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_tsdb\",\n"
      << "  \"metric\": \"sharded ingest + query fan-out: measured serial "
         "(wall_us) and kParallel (parallel_wall_us) wall time, plus a "
         "parallel-makespan model (modeled_*)\",\n"
      << "  \"samples\": " << config.samples() << ",\n  \"ingest\": [\n";
  for (std::size_t i = 0; i < ingests.size(); ++i) {
    const IngestResult& r = ingests[i];
    out << "    {\"shards\": " << r.shards << ", \"samples\": " << r.samples
        << ", \"serial_ms\": " << r.serial_ms
        << ", \"makespan_ms\": " << r.makespan_ms
        << ", \"samples_per_sec\": " << r.samples_per_sec() << "}"
        << (i + 1 < ingests.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"query\": [\n";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = queries[i];
    out << "    {\"query\": \"" << r.query << "\", \"shards\": " << r.shards
        << ", \"runs\": " << r.runs << ", \"wall_us\": " << r.wall_us
        << ", \"parallel_wall_us\": " << r.parallel_wall_us
        << ", \"modeled_us\": " << r.modeled_us
        << ", \"modeled_qps\": " << r.modeled_qps()
        << ", \"rollup_level_us\": " << r.rollup_level_us << "}"
        << (i + 1 < queries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

/// Line-based re-parse of the emitted JSON (the regression guard must not
/// trust the in-memory numbers it just computed — it checks the artifact).
double qps_from_json(const std::string& path, const std::string& query,
                     std::size_t shards) {
  std::ifstream in(path);
  std::string line;
  const std::string query_needle = "\"query\": \"" + query + "\"";
  const std::string shard_needle =
      "\"shards\": " + std::to_string(shards) + ",";
  while (std::getline(in, line)) {
    if (line.find(query_needle) == std::string::npos) continue;
    if (line.find(shard_needle) == std::string::npos) continue;
    const std::string key = "\"modeled_qps\": ";
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) continue;
    return std::stod(line.substr(pos + key.size()));
  }
  return -1.0;
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

  Table ingest_table(
      {"shards", "samples", "serial [ms]", "makespan [ms]", "samples/s"});
  for (const IngestResult& r : ingests) {
    ingest_table.add_row({std::to_string(r.shards), std::to_string(r.samples),
                          fmt_double(r.serial_ms, 1),
                          fmt_double(r.makespan_ms, 1),
                          fmt_double(r.samples_per_sec(), 0)});
  }
  ingest_table.print(std::cout);

  Table query_table({"query", "shards", "serial [us]", "parallel [us]",
                     "modeled [us]", "modeled qps", "rollup level"});
  for (const QueryResult& r : queries) {
    query_table.add_row(
        {r.query, std::to_string(r.shards), fmt_double(r.wall_us, 1),
         fmt_double(r.parallel_wall_us, 1), fmt_double(r.modeled_us, 1),
         fmt_double(r.modeled_qps(), 1),
         r.rollup_level_us == 0
             ? std::string("raw")
             : std::to_string(r.rollup_level_us / 1000000) + "s"});
  }
  std::cout << "\n";
  query_table.print(std::cout);

  // Headline speedups: modeled query latency 4 shards vs 1, and the
  // measured kParallel speedup over kSerial at 4 shards.
  for (const std::string& name : {std::string("listing1_25s"),
                                  std::string("rollup_wide"),
                                  std::string("p99_wide")}) {
    double one = 0.0;
    double four = 0.0;
    double serial_four = 0.0;
    double parallel_four = 0.0;
    for (const QueryResult& r : queries) {
      if (r.query != name) continue;
      if (r.shards == 1) one = r.modeled_us;
      if (r.shards == 4) {
        four = r.modeled_us;
        serial_four = r.wall_us;
        parallel_four = r.parallel_wall_us;
      }
    }
    if (one > 0.0 && four > 0.0) {
      std::cout << "\n4-vs-1 shard modeled speedup (" << name
                << "): " << fmt_double(one / four, 2) << "x";
    }
    if (parallel_four > 0.0) {
      std::cout << "\n4-shard measured parallel-vs-serial speedup (" << name
                << "): " << fmt_double(serial_four / parallel_four, 2) << "x";
    }
  }
  std::cout << "\n";

  const std::string path =
      config.smoke ? "BENCH_tsdb_smoke.json" : "BENCH_tsdb.json";
  write_json(path, config, ingests, queries);
  std::cout << "\nwrote " << path << "\n";

  if (config.smoke) {
    // Regression guard (ctest `bench` label): the artifact itself must
    // show the 4-shard modeled throughput at or above the 1-shard
    // baseline on the wide raw scan — the shape sharding exists for.
    const double one = qps_from_json(path, "p99_wide", 1);
    const double four = qps_from_json(path, "p99_wide", 4);
    std::cout << "smoke guard: p99_wide modeled qps 1-shard=" << one
              << " 4-shard=" << four << "\n";
    if (one <= 0.0 || four <= 0.0) {
      std::cerr << "smoke guard: missing datapoints in " << path << "\n";
      return 1;
    }
    if (four < one) {
      std::cerr << "smoke guard: 4-shard modeled throughput below the "
                   "1-shard baseline\n";
      return 1;
    }
  }
  return 0;
}
