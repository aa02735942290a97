#include "tsdb/ql/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "tsdb/ql/lexer.hpp"
#include "tsdb/ql/prepared.hpp"

namespace sgxo::tsdb::ql {

double Row::field(const std::string& name) const {
  const auto it = fields.find(name);
  SGXO_CHECK_MSG(it != fields.end(), "missing field '" + name + "'");
  return it->second;
}

double ResultSet::sum(const std::string& field) const {
  double total = 0.0;
  for (const Row& row : rows) {
    const auto it = row.fields.find(field);
    if (it != row.fields.end()) total += it->second;
  }
  return total;
}

double ResultSet::value_for(const std::string& tag, const std::string& value,
                            const std::string& field, double fallback) const {
  for (const Row& row : rows) {
    const auto tag_it = row.tags.find(tag);
    if (tag_it == row.tags.end() || tag_it->second != value) continue;
    const auto field_it = row.fields.find(field);
    if (field_it != row.fields.end()) return field_it->second;
  }
  return fallback;
}

/// Per-statement static plan: everything about a node that does not depend
/// on now(), parameter bindings, or the database. Computed once by
/// analyze() (PreparedQuery caches the result) or on the fly for one-shot
/// queries.
struct QueryAnalysis {
  /// All projections are decomposable aggregates of "value" and the WHERE
  /// clause has no field predicates and no `time <>` — the scan may read
  /// rollup buckets when the window is wide enough.
  bool rollup_static_ok = false;
  /// A field predicate names a field measurement rows never carry, so a
  /// measurement scan of this node yields nothing.
  bool scan_fields_ok = true;
  std::unique_ptr<QueryAnalysis> sub;  // analysis of a subquery source
};

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();

/// A rollup level must tile the window this many times before it beats a
/// raw scan; narrower windows (the scheduler's 25 s Listing-1 slide) stay
/// raw and exact.
constexpr std::int64_t kRollupMinBuckets = 16;

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::string bucket_suffix(std::int64_t bucket) {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "|t%020lld",
                static_cast<long long>(bucket));
  return suffix;
}

/// Deterministic mergeable quantile sketch: a fixed log-bucket histogram
/// (sign/zero bucket + 4 sub-buckets per power of two). Merging adds
/// counts, so the result is independent of shard layout and fold order;
/// the reported quantile is the lower edge of the bucket holding the
/// target rank (a ≤ 19 % relative overestimate bound per bucket edge).
class QuantileSketch {
 public:
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr int kMinExp = -64;
  static constexpr int kMaxExp = 64;
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void add(double v) {
    ++counts_[bucket_of(v)];
    ++total_;
  }

  void merge(const QuantileSketch& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return lower_edge(i);
    }
    return lower_edge(kBuckets - 1);
  }

 private:
  static std::size_t bucket_of(double v) {
    if (!(v > 0.0)) return 0;  // zero, negatives, NaN → the floor bucket
    int exp = 0;
    const double mantissa = std::frexp(v, &exp);  // v = m * 2^exp, m ∈ [.5,1)
    exp = std::clamp(exp, kMinExp, kMaxExp - 1);
    auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                        static_cast<double>(kSubBuckets));
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
  }

  static double lower_edge(std::size_t bucket) {
    if (bucket == 0) return 0.0;
    const std::size_t idx = bucket - 1;
    const int exp = kMinExp + static_cast<int>(idx / kSubBuckets);
    const auto sub = static_cast<double>(idx % kSubBuckets);
    return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Aggregation state for one (group, projection) cell. Every operation is
/// order-independent and mergeable, so per-shard partials combine into the
/// same values a single sequential fold would produce.
class Accumulator {
 public:
  explicit Accumulator(Aggregate agg) : agg_(agg) {
    if (is_quantile(agg_)) sketch_ = std::make_unique<QuantileSketch>();
  }

  void add(double v, TimePoint t) {
    if (sketch_) sketch_->add(v);
    ++count_;
    sum_ += v;
    if (count_ == 1) {
      min_ = max_ = v;
      first_ = last_ = v;
      first_time_ = last_time_ = t;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
      // Lexicographic (time, value) tie-breaks keep first/last independent
      // of arrival and fold order.
      if (t < first_time_ || (t == first_time_ && v < first_)) {
        first_time_ = t;
        first_ = v;
      }
      if (t > last_time_ || (t == last_time_ && v > last_)) {
        last_time_ = t;
        last_ = v;
      }
    }
  }

  /// Folds a whole rollup bucket. Only reached when the statement is
  /// rollup-eligible, which excludes quantiles.
  void add_summary(const RollupBucket& b) {
    if (b.count == 0) return;
    if (count_ == 0) {
      min_ = b.min;
      max_ = b.max;
      first_ = b.first;
      first_time_ = TimePoint::from_micros(b.first_time_us);
      last_ = b.last;
      last_time_ = TimePoint::from_micros(b.last_time_us);
    } else {
      min_ = std::min(min_, b.min);
      max_ = std::max(max_, b.max);
      const TimePoint bf = TimePoint::from_micros(b.first_time_us);
      if (bf < first_time_ || (bf == first_time_ && b.first < first_)) {
        first_time_ = bf;
        first_ = b.first;
      }
      const TimePoint bl = TimePoint::from_micros(b.last_time_us);
      if (bl > last_time_ || (bl == last_time_ && b.last > last_)) {
        last_time_ = bl;
        last_ = b.last;
      }
    }
    count_ += b.count;
    sum_ += b.sum;
  }

  void merge(const Accumulator& other) {
    if (other.count_ == 0) return;
    if (sketch_ && other.sketch_) sketch_->merge(*other.sketch_);
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
      first_ = other.first_;
      first_time_ = other.first_time_;
      last_ = other.last_;
      last_time_ = other.last_time_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
      if (other.first_time_ < first_time_ ||
          (other.first_time_ == first_time_ && other.first_ < first_)) {
        first_time_ = other.first_time_;
        first_ = other.first_;
      }
      if (other.last_time_ > last_time_ ||
          (other.last_time_ == last_time_ && other.last_ > last_)) {
        last_time_ = other.last_time_;
        last_ = other.last_;
      }
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] double result() const {
    switch (agg_) {
      case Aggregate::kMax: return max_;
      case Aggregate::kMin: return min_;
      case Aggregate::kSum: return sum_;
      case Aggregate::kMean:
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
      case Aggregate::kCount: return static_cast<double>(count_);
      case Aggregate::kLast: return last_;
      case Aggregate::kFirst: return first_;
      case Aggregate::kP50:
      case Aggregate::kP95:
      case Aggregate::kP99:
        return sketch_->quantile(quantile_rank(agg_));
    }
    return 0.0;
  }

 private:
  Aggregate agg_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double first_ = 0.0;
  double last_ = 0.0;
  TimePoint first_time_;
  TimePoint last_time_;
  std::unique_ptr<QuantileSketch> sketch_;
};

struct Group {
  Tags tags;
  TimePoint min_time{TimePoint::from_micros(kInt64Max)};
  std::vector<Accumulator> cells;
};
using GroupMap = std::map<std::string, Group>;

/// The effective offset of a time predicate: its literal, or its bound
/// parameter for prepared statements.
std::int64_t time_offset_us(const TimePredicate& tp,
                            const QueryParams& params) {
  if (tp.param.empty()) return tp.offset_us;
  const auto it = params.find(tp.param);
  if (it == params.end()) {
    throw QueryError{"unbound query parameter '$" + tp.param + "'"};
  }
  return tp.param_sign * it->second.micros_count();
}

bool row_matches(const Row& row, const Predicate& predicate, TimePoint now,
                 const QueryParams& params) {
  if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
    const auto it = row.fields.find(fp->field);
    if (it == row.fields.end()) return false;
    return compare(it->second, fp->op, fp->literal);
  }
  const auto& tp = std::get<TimePredicate>(predicate);
  const std::int64_t offset_us = time_offset_us(tp, params);
  const std::int64_t bound_us =
      tp.relative_to_now ? now.micros_since_epoch() + offset_us : offset_us;
  return compare(static_cast<double>(row.time.micros_since_epoch()), tp.op,
                 static_cast<double>(bound_us));
}

/// Everything a measurement scan needs, resolved once before any shard:
/// integer window bounds from the time predicates, residual per-point
/// predicates, and the rollup level (if the statement and window qualify).
struct ScanSpec {
  const SelectStmt* stmt = nullptr;
  const std::string* measurement = nullptr;
  std::int64_t lo = kInt64Min;
  std::int64_t hi = kInt64Max;
  std::vector<double> neq_times;          // time <> X, compared as doubles
  std::vector<const FieldPredicate*> value_preds;
  bool fields_ok = true;   // false: a field predicate can never match
  std::int64_t interval_us = 0;           // GROUP BY time(...)
  std::size_t rollup_level = kRollupLevelCount;  // == count → raw scan
  std::int64_t rollup_level_us = 0;
};

bool rollup_static_ok(const SelectStmt& stmt) {
  for (const Predicate& predicate : stmt.where) {
    if (std::holds_alternative<FieldPredicate>(predicate)) return false;
    if (std::get<TimePredicate>(predicate).op == CompareOp::kNeq) {
      return false;
    }
  }
  for (const Projection& proj : stmt.projections) {
    if (proj.field != "value") return false;
    if (is_quantile(proj.agg)) return false;
  }
  return true;
}

bool scan_fields_ok(const SelectStmt& stmt) {
  for (const Predicate& predicate : stmt.where) {
    const auto* fp = std::get_if<FieldPredicate>(&predicate);
    if (fp != nullptr && fp->field != "value") return false;
  }
  return true;
}

std::unique_ptr<QueryAnalysis> analyze_node(const SelectStmt& stmt) {
  auto analysis = std::make_unique<QueryAnalysis>();
  analysis->rollup_static_ok = rollup_static_ok(stmt);
  analysis->scan_fields_ok = scan_fields_ok(stmt);
  if (const auto* sub =
          std::get_if<std::unique_ptr<SelectStmt>>(&stmt.source)) {
    analysis->sub = analyze_node(**sub);
  }
  return analysis;
}

ScanSpec resolve_scan(const SelectStmt& stmt, const std::string& measurement,
                      const Database& db, TimePoint now,
                      const QueryParams& params,
                      const QueryAnalysis& analysis) {
  ScanSpec spec;
  spec.stmt = &stmt;
  spec.measurement = &measurement;
  spec.interval_us = stmt.group_by_time.micros_count();
  spec.fields_ok = analysis.scan_fields_ok;

  for (const Predicate& predicate : stmt.where) {
    if (const auto* fp = std::get_if<FieldPredicate>(&predicate)) {
      if (fp->field == "value") spec.value_preds.push_back(fp);
      continue;  // non-"value" fields already folded into fields_ok
    }
    const auto& tp = std::get<TimePredicate>(predicate);
    const std::int64_t offset = time_offset_us(tp, params);
    const std::int64_t bound =
        tp.relative_to_now ? now.micros_since_epoch() + offset : offset;
    switch (tp.op) {
      case CompareOp::kGte: spec.lo = std::max(spec.lo, bound); break;
      case CompareOp::kGt:
        spec.lo = std::max(spec.lo,
                           bound == kInt64Max ? bound : bound + 1);
        break;
      case CompareOp::kLte: spec.hi = std::min(spec.hi, bound); break;
      case CompareOp::kLt:
        spec.hi = std::min(spec.hi,
                           bound == kInt64Min ? bound : bound - 1);
        break;
      case CompareOp::kEq:
        spec.lo = std::max(spec.lo, bound);
        spec.hi = std::min(spec.hi, bound);
        break;
      case CompareOp::kNeq:
        spec.neq_times.push_back(static_cast<double>(bound));
        break;
    }
  }

  // Rollup level: coarsest level whose buckets nest into the GROUP BY
  // time() interval and tile the window at least kRollupMinBuckets times.
  if (analysis.rollup_static_ok && db.config().rollups &&
      spec.value_preds.empty()) {
    std::int64_t width = kInt64Max;
    if (spec.lo != kInt64Min) {
      const std::int64_t effective_hi =
          spec.hi == kInt64Max ? now.micros_since_epoch() : spec.hi;
      width = effective_hi > spec.lo ? effective_hi - spec.lo : 0;
    }
    for (std::size_t level = kRollupLevelCount; level-- > 0;) {
      const std::int64_t level_us = kRollupLevelsUs[level];
      if (spec.interval_us != 0 && spec.interval_us % level_us != 0) continue;
      if (width / level_us < kRollupMinBuckets) continue;
      spec.rollup_level = level;
      spec.rollup_level_us = level_us;
      break;
    }
  }
  return spec;
}

/// Folds one shard of a measurement into per-group partial aggregates.
GroupMap scan_shard(const Database& db, const ScanSpec& spec,
                    std::size_t shard, ShardScanStats* stats) {
  GroupMap groups;
  if (!spec.fields_ok) return groups;
  const SelectStmt& stmt = *spec.stmt;

  std::int64_t hi = spec.hi;
  bool use_rollup = spec.rollup_level < kRollupLevelCount;
  const std::optional<TimePoint> horizon = db.effective_read_horizon(shard);
  if (horizon.has_value()) {
    // A frozen shard answers from raw points so the horizon cuts exactly;
    // rollup buckets cannot be truncated mid-bucket.
    hi = std::min(hi, horizon->micros_since_epoch());
    use_rollup = false;
  }
  if (spec.lo > hi) return groups;

  db.for_each_series_in_shard(
      *spec.measurement, shard,
      [&](const std::string&, const Series& series) {
        // Every raw point and every rollup bucket this scan could fold
        // lies at or after lo, and none of the series lies after its
        // newest appended point: a series that went quiet before the
        // window costs one comparison, not a chunk and bucket search.
        if (series.newest_appended_us() < spec.lo) return;
        if (stats != nullptr) ++stats->series;
        // The group key is a pure function of the series tags. It is built
        // once per series, and only when the series folds its first point:
        // a series with nothing in the window costs no allocation.
        Tags key;
        std::optional<std::string> base_key;

        Group* current = nullptr;
        std::int64_t current_bucket = kInt64Min;
        const auto group_for = [&](std::int64_t bucket,
                                   bool bucketed) -> Group& {
          if (current != nullptr && (!bucketed || bucket == current_bucket)) {
            return *current;
          }
          if (!base_key.has_value()) {
            for (const std::string& tag : stmt.group_by) {
              const auto it = series.tags().find(tag);
              key.emplace(tag, it == series.tags().end() ? "" : it->second);
            }
            base_key = tags_key(key);
          }
          std::string key_str = *base_key;
          if (bucketed) key_str += bucket_suffix(bucket);
          auto it = groups.find(key_str);
          if (it == groups.end()) {
            Group group;
            group.tags = key;
            group.cells.reserve(stmt.projections.size());
            for (const Projection& proj : stmt.projections) {
              group.cells.emplace_back(proj.agg);
            }
            it = groups.emplace(std::move(key_str), std::move(group)).first;
          }
          current = &it->second;
          current_bucket = bucket;
          return *current;
        };

        const auto fold_point = [&](const Point& p) {
          const auto t = static_cast<double>(p.time.micros_since_epoch());
          for (const double bound : spec.neq_times) {
            if (t == bound) return;
          }
          for (const FieldPredicate* fp : spec.value_preds) {
            if (!compare(p.value, fp->op, fp->literal)) return;
          }
          if (stats != nullptr) ++stats->points;
          Group* group;
          if (spec.interval_us != 0) {
            const std::int64_t window =
                floor_div(p.time.micros_since_epoch(), spec.interval_us);
            group = &group_for(window, true);
            group->min_time =
                TimePoint::from_micros(window * spec.interval_us);
          } else {
            group = &group_for(0, false);
            group->min_time = std::min(group->min_time, p.time);
          }
          for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
            if (stmt.projections[c].field == "value") {
              group->cells[c].add(p.value, p.time);
            }
          }
        };

        if (use_rollup) {
          // A bucket cut mid-bucket by lo or hi cannot be folded whole:
          // its summary covers points outside the window. Answer the
          // bucket-aligned core [full_lo, full_hi) from rollups and fall
          // back to raw points for the cut edges, so results are exact
          // for arbitrary (including now()-relative) bounds.
          const std::int64_t level_us = spec.rollup_level_us;
          std::int64_t full_lo = kInt64Min;
          if (spec.lo != kInt64Min) {
            full_lo = floor_div(spec.lo + level_us - 1, level_us) * level_us;
          }
          std::int64_t full_hi = kInt64Max;
          if (hi != kInt64Max) {
            full_hi = floor_div(hi + 1, level_us) * level_us;
          }
          if (full_lo > full_hi - level_us) {
            // No whole bucket fits between the cuts; pure raw scan.
            series.for_each_in_window(spec.lo, hi, fold_point);
            return;
          }

          const std::vector<RollupBucket>& buckets =
              series.rollup(spec.rollup_level);
          auto it = std::lower_bound(
              buckets.begin(), buckets.end(), full_lo,
              [](const RollupBucket& b, std::int64_t t) {
                return b.start_us < t;
              });
          for (; it != buckets.end() && it->start_us <= full_hi - level_us;
               ++it) {
            if (stats != nullptr) ++stats->points;
            Group* group;
            if (spec.interval_us != 0) {
              const std::int64_t window =
                  floor_div(it->start_us, spec.interval_us);
              group = &group_for(window, true);
              group->min_time =
                  TimePoint::from_micros(window * spec.interval_us);
            } else {
              group = &group_for(0, false);
              group->min_time =
                  std::min(group->min_time,
                           TimePoint::from_micros(it->first_time_us));
            }
            for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
              group->cells[c].add_summary(*it);
            }
          }
          if (spec.lo != kInt64Min) {
            series.for_each_in_window(spec.lo, full_lo - 1, fold_point);
          }
          if (hi != kInt64Max) {
            series.for_each_in_window(full_hi, hi, fold_point);
          }
          return;
        }

        series.for_each_in_window(spec.lo, hi, fold_point);
      });
  return groups;
}

ResultSet render(const SelectStmt& stmt, GroupMap& groups) {
  ResultSet result;
  result.rows.reserve(groups.size());
  for (auto& [key, group] : groups) {
    Row out;
    out.tags = std::move(group.tags);
    out.time = group.min_time;
    bool any = false;
    for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
      if (!group.cells[c].empty()) {
        out.fields.emplace(stmt.projections[c].alias, group.cells[c].result());
        any = true;
      }
    }
    if (any) {
      result.rows.push_back(std::move(out));
    }
  }
  // OFFSET/LIMIT over the deterministic (tags, time) order produced by
  // the group map.
  if (stmt.offset > 0) {
    if (stmt.offset >= result.rows.size()) {
      result.rows.clear();
    } else {
      result.rows.erase(result.rows.begin(),
                        result.rows.begin() +
                            static_cast<std::ptrdiff_t>(stmt.offset));
    }
  }
  if (stmt.limit > 0 && result.rows.size() > stmt.limit) {
    result.rows.resize(stmt.limit);
  }
  return result;
}

ResultSet exec_node(const SelectStmt& stmt, const Database& db, TimePoint now,
                    const QueryParams& params, const ExecOptions& options,
                    const QueryAnalysis& analysis);

/// Shard-by-shard scan for `FROM "measurement"`.
ResultSet exec_scan(const SelectStmt& stmt, const std::string& measurement,
                    const Database& db, TimePoint now,
                    const QueryParams& params, const ExecOptions& options,
                    const QueryAnalysis& analysis) {
  const ScanSpec spec =
      resolve_scan(stmt, measurement, db, now, params, analysis);
  const std::size_t shard_count = db.shard_count();

  ExecStats* stats = options.stats;
  if (stats != nullptr) {
    if (stats->shards.size() < shard_count) stats->shards.resize(shard_count);
    if (spec.rollup_level < kRollupLevelCount) {
      stats->rollup_level_us =
          std::max(stats->rollup_level_us, spec.rollup_level_us);
    }
  }

  const auto scan_one = [&](std::size_t s) {
    return scan_shard(db, spec, s,
                      stats != nullptr ? &stats->shards[s] : nullptr);
  };

  // Fold shards 0..n-1 one after another and merge each partial in shard
  // order. Aggregates are order-independent, so this produces the 1-shard
  // fold bit for bit.
  GroupMap merged = scan_one(0);
  for (std::size_t s = 1; s < shard_count; ++s) {
    for (auto& [key, group] : scan_one(s)) {
      const auto it = merged.find(key);
      if (it == merged.end()) {
        merged.emplace(key, std::move(group));
        continue;
      }
      it->second.min_time = std::min(it->second.min_time, group.min_time);
      for (std::size_t c = 0; c < it->second.cells.size(); ++c) {
        it->second.cells[c].merge(group.cells[c]);
      }
    }
  }
  return render(stmt, merged);
}

/// Row-at-a-time path for subquery sources: execute the inner statement,
/// then filter/group its output rows exactly as the pre-shard executor
/// did (inner rows are few — one per group — so scanning them centrally
/// costs nothing).
ResultSet exec_rows(const SelectStmt& stmt, const Database& db, TimePoint now,
                    const QueryParams& params, const ExecOptions& options,
                    const QueryAnalysis& analysis) {
  const auto& sub = std::get<std::unique_ptr<SelectStmt>>(stmt.source);
  SGXO_CHECK(analysis.sub != nullptr);
  std::vector<Row> rows =
      exec_node(*sub, db, now, params, options, *analysis.sub).rows;

  if (!stmt.where.empty()) {
    std::erase_if(rows, [&](const Row& row) {
      return !std::all_of(stmt.where.begin(), stmt.where.end(),
                          [&](const Predicate& p) {
                            return row_matches(row, p, now, params);
                          });
    });
  }

  GroupMap groups;
  const bool time_buckets = stmt.group_by_time > Duration{};
  const std::int64_t interval_us = stmt.group_by_time.micros_count();

  for (const Row& row : rows) {
    Tags key;
    for (const std::string& tag : stmt.group_by) {
      const auto it = row.tags.find(tag);
      key.emplace(tag, it == row.tags.end() ? "" : it->second);
    }
    std::string key_str = tags_key(key);
    TimePoint window_start = row.time;
    if (time_buckets) {
      const std::int64_t bucket =
          floor_div(row.time.micros_since_epoch(), interval_us);
      window_start = TimePoint::from_micros(bucket * interval_us);
      key_str += bucket_suffix(bucket);
    }
    auto it = groups.find(key_str);
    if (it == groups.end()) {
      Group group;
      group.tags = std::move(key);
      group.cells.reserve(stmt.projections.size());
      for (const Projection& proj : stmt.projections) {
        group.cells.emplace_back(proj.agg);
      }
      it = groups.emplace(std::move(key_str), std::move(group)).first;
    }
    Group& group = it->second;
    group.min_time =
        time_buckets ? window_start : std::min(group.min_time, row.time);
    for (std::size_t c = 0; c < stmt.projections.size(); ++c) {
      const auto field_it = row.fields.find(stmt.projections[c].field);
      if (field_it != row.fields.end()) {
        group.cells[c].add(field_it->second, row.time);
      }
    }
  }
  return render(stmt, groups);
}

ResultSet exec_node(const SelectStmt& stmt, const Database& db, TimePoint now,
                    const QueryParams& params, const ExecOptions& options,
                    const QueryAnalysis& analysis) {
  if (const auto* name = std::get_if<std::string>(&stmt.source)) {
    return exec_scan(stmt, *name, db, now, params, options, analysis);
  }
  return exec_rows(stmt, db, now, params, options, analysis);
}

}  // namespace

std::shared_ptr<const QueryAnalysis> analyze(const SelectStmt& stmt) {
  return std::shared_ptr<const QueryAnalysis>{analyze_node(stmt).release()};
}

ResultSet execute(const SelectStmt& stmt, const Database& db, TimePoint now,
                  const QueryParams& params) {
  return execute(stmt, db, now, params, ExecOptions{});
}

ResultSet execute(const SelectStmt& stmt, const Database& db, TimePoint now,
                  const QueryParams& params, const ExecOptions& options) {
  if (options.analysis != nullptr) {
    return exec_node(stmt, db, now, params, options, *options.analysis);
  }
  const std::unique_ptr<QueryAnalysis> analysis = analyze_node(stmt);
  return exec_node(stmt, db, now, params, options, *analysis);
}

ResultSet query(const std::string& text, const Database& db, TimePoint now) {
  return PreparedQuery::prepare(text).execute(db, now);
}

}  // namespace sgxo::tsdb::ql
