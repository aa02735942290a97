#include "tsdb/model.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace sgxo::tsdb {
namespace {

// Floor division that rounds toward negative infinity, so pre-epoch
// timestamps land in the right chunk/bucket.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Appends the "k1=v1,k2=v2" rendering of `tags` to `out`.
template <typename TagRange>
void append_tags_key(std::string& out, const TagRange& tags) {
  bool first = true;
  for (const auto& [k, v] : tags) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
}

// Renders "measurement\ntags_key" into `buf` (its storage reused from call
// to call) and returns the tags_key suffix: the whole buffer is the shard
// routing string, the suffix the series key.
std::string_view render_series(std::string& buf, std::string_view measurement,
                               std::span<const TagView> tags) {
  buf.assign(measurement);
  buf += '\n';
  append_tags_key(buf, tags);
  return std::string_view(buf).substr(measurement.size() + 1);
}

void check_sample(const Database::Sample& sample) {
  SGXO_CHECK_MSG(!sample.measurement.empty(),
                 "measurement name must not be empty");
  for (std::size_t i = 1; i < sample.tags.size(); ++i) {
    SGXO_CHECK_MSG(sample.tags[i - 1].first < sample.tags[i].first,
                   "sample tags must be in strictly increasing key order");
  }
}

}  // namespace

std::string tags_key(const Tags& tags) {
  std::string key;
  append_tags_key(key, tags);
  return key;
}

std::vector<TagView> tag_views(const Tags& tags) {
  return {tags.begin(), tags.end()};
}

// ---- Series ----------------------------------------------------------------

std::vector<Point> Series::points() const {
  std::vector<Point> out;
  out.reserve(size_);
  for (const Chunk& chunk : chunks_) {
    out.insert(out.end(), chunk.points.begin(), chunk.points.end());
  }
  return out;
}

void Series::update_rollups(const Point& p) {
  if (!options_.rollups) return;
  const std::int64_t t = p.time.micros_since_epoch();
  const double v = p.value;
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    const std::int64_t width = kRollupLevelsUs[level];
    const std::int64_t start = floor_div(t, width) * width;
    std::vector<RollupBucket>& buckets = rollups_[level];
    // Fast path: in-order ingest lands in (or after) the last bucket.
    RollupBucket* bucket = nullptr;
    if (!buckets.empty() && buckets.back().start_us == start) {
      bucket = &buckets.back();
    } else if (buckets.empty() || buckets.back().start_us < start) {
      buckets.push_back(RollupBucket{});
      bucket = &buckets.back();
      bucket->start_us = start;
    } else {
      auto it = std::lower_bound(buckets.begin(), buckets.end(), start,
                                 [](const RollupBucket& b, std::int64_t s) {
                                   return b.start_us < s;
                                 });
      if (it == buckets.end() || it->start_us != start) {
        it = buckets.insert(it, RollupBucket{});
        it->start_us = start;
      }
      bucket = &*it;
    }
    if (bucket->count == 0) {
      bucket->sum = v;
      bucket->min = v;
      bucket->max = v;
      bucket->first = v;
      bucket->first_time_us = t;
      bucket->last = v;
      bucket->last_time_us = t;
    } else {
      bucket->sum += v;
      bucket->min = std::min(bucket->min, v);
      bucket->max = std::max(bucket->max, v);
      // Lexicographic (time, value) ties keep the summary order-free.
      if (t < bucket->first_time_us ||
          (t == bucket->first_time_us && v < bucket->first)) {
        bucket->first_time_us = t;
        bucket->first = v;
      }
      if (t > bucket->last_time_us ||
          (t == bucket->last_time_us && v > bucket->last)) {
        bucket->last_time_us = t;
        bucket->last = v;
      }
    }
    ++bucket->count;
  }
}

void Series::append(Point p) {
  const std::int64_t t = p.time.micros_since_epoch();
  ++size_;
  newest_us_ = std::max(newest_us_, t);
  // Any rollup bucket the point opens ends after it, so the point itself
  // is the only thing that can bring the drop due forward.
  drop_due_us_ = std::min(drop_due_us_, t + 1);
  update_rollups(p);

  const auto insert_sorted = [&](Chunk& chunk) {
    if (chunk.points.back().time <= p.time) {
      chunk.points.push_back(p);
      return;
    }
    const auto pos = std::upper_bound(
        chunk.points.begin(), chunk.points.end(), p,
        [](const Point& a, const Point& b) { return a.time < b.time; });
    chunk.points.insert(pos, p);
  };

  std::size_t grown = 0;  // index of the chunk that took the point
  if (!chunks_.empty() && t >= chunks_.back().start_us &&
      t < chunks_.back().end_us) {
    // Fast path: the newest chunk covers t (in-order ingest).
    grown = chunks_.size() - 1;
  } else {
    // General path: the chunk whose [start, end) contains t, if any.
    auto it = std::upper_bound(
        chunks_.begin(), chunks_.end(), t,
        [](std::int64_t time, const Chunk& c) { return time < c.end_us; });
    if (it == chunks_.end() || t < it->start_us) {
      // New aligned chunk in sorted position (`it` is the first chunk
      // that starts after t): it forms new adjacent pairs.
      const std::int64_t width = options_.chunk_width_us;
      Chunk chunk;
      chunk.start_us = floor_div(t, width) * width;
      chunk.end_us = chunk.start_us + width;
      chunk.points.push_back(p);
      chunks_.insert(it, std::move(chunk));
      refresh_compact_due();
      return;
    }
    grown = static_cast<std::size_t>(it - chunks_.begin());
  }
  insert_sorted(chunks_[grown]);
  // One more point leaves a pair's merge due unchanged unless it pushes
  // the pair's total just past the size limit.
  const auto crossed = [&](std::size_t first) {
    return chunks_[first].points.size() + chunks_[first + 1].points.size() ==
           kCompactTargetPoints + 1;
  };
  if ((grown > 0 && crossed(grown - 1)) ||
      (grown + 1 < chunks_.size() && crossed(grown))) {
    refresh_compact_due();
  }
}

std::int64_t Series::pair_compact_due(std::size_t i) const {
  const Chunk& dst = chunks_[i];
  const Chunk& next = chunks_[i + 1];
  // dst ends no later than next starts, so next's end is the first
  // sealed_before at which both are sealed.
  const bool within =
      dst.points.size() + next.points.size() <= kCompactTargetPoints &&
      next.end_us - dst.start_us <=
          kCompactMaxSpanWidths * options_.chunk_width_us;
  return within ? next.end_us : INT64_MAX;
}

void Series::refresh_drop_due() {
  std::int64_t due =
      chunks_.empty()
          ? INT64_MAX
          : chunks_.front().points.front().time.micros_since_epoch() + 1;
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    if (rollups_[level].empty()) continue;
    due = std::min(due,
                   rollups_[level].front().start_us + kRollupLevelsUs[level]);
  }
  drop_due_us_ = due;
}

void Series::refresh_compact_due() {
  // Chunk ends increase along the vector, so the first pair within the
  // limits has the smallest due.
  compact_due_us_ = INT64_MAX;
  for (std::size_t i = 0; i + 1 < chunks_.size(); ++i) {
    const std::int64_t due = pair_compact_due(i);
    if (due != INT64_MAX) {
      compact_due_us_ = due;
      return;
    }
  }
}

std::vector<Point> Series::in_window(TimePoint lo, TimePoint hi) const {
  std::vector<Point> out;
  for_each_in_window(lo.micros_since_epoch(), hi.micros_since_epoch(),
                     [&](const Point& p) { out.push_back(p); });
  return out;
}

std::optional<TimePoint> Series::newest(
    std::optional<TimePoint> horizon) const {
  for (auto chunk = chunks_.rbegin(); chunk != chunks_.rend(); ++chunk) {
    const std::vector<Point>& pts = chunk->points;
    if (!horizon.has_value()) return pts.back().time;
    // Last point with time <= horizon within this chunk, else keep looking
    // in earlier chunks.
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), *horizon,
        [](TimePoint t, const Point& p) { return t < p.time; });
    if (it != pts.begin()) return std::prev(it)->time;
  }
  return std::nullopt;
}

std::size_t Series::drop_before(TimePoint horizon) {
  const std::int64_t h = horizon.micros_since_epoch();
  std::size_t dropped = 0;
  // Whole chunks first: end <= h means every point is < h.
  auto it = chunks_.begin();
  while (it != chunks_.end() && it->end_us <= h) {
    dropped += it->points.size();
    ++it;
  }
  chunks_.erase(chunks_.begin(), it);
  // Partial trim of a straddling chunk: points strictly older than h. A
  // chunk the trim empties goes too: no chunk is ever left without points.
  if (!chunks_.empty() && chunks_.front().start_us < h) {
    std::vector<Point>& pts = chunks_.front().points;
    const auto first_kept = std::lower_bound(
        pts.begin(), pts.end(), h, [](const Point& p, std::int64_t t) {
          return p.time.micros_since_epoch() < t;
        });
    dropped += static_cast<std::size_t>(first_kept - pts.begin());
    if (first_kept == pts.end()) {
      chunks_.erase(chunks_.begin());
    } else {
      pts.erase(pts.begin(), first_kept);
    }
  }
  size_ -= dropped;
  // Rollup buckets go only once fully expired (start + level <= h), so a
  // partially-expired bucket still serves queries; the executor snaps
  // window edges to bucket starts anyway.
  for (std::size_t level = 0; level < kRollupLevelCount; ++level) {
    const std::int64_t width = kRollupLevelsUs[level];
    std::vector<RollupBucket>& buckets = rollups_[level];
    auto kept = buckets.begin();
    while (kept != buckets.end() && kept->start_us + width <= h) ++kept;
    buckets.erase(buckets.begin(), kept);
  }
  refresh_drop_due();
  refresh_compact_due();
  return dropped;
}

std::size_t Series::compact(std::int64_t sealed_before_us) {
  const std::int64_t max_span =
      kCompactMaxSpanWidths * options_.chunk_width_us;
  const auto mergeable = [&](const Chunk& dst, const Chunk& next) {
    return next.end_us <= sealed_before_us && dst.end_us <= sealed_before_us &&
           dst.points.size() + next.points.size() <= kCompactTargetPoints &&
           next.end_us - dst.start_us <= max_span;
  };
  // Until the first merge every destination is the previous chunk itself,
  // so no mergeable adjacent pair means nothing to do: return before
  // building a new chunk vector.
  if (std::adjacent_find(chunks_.begin(), chunks_.end(), mergeable) ==
      chunks_.end()) {
    return 0;
  }

  std::size_t merges = 0;
  std::vector<Chunk> out;
  out.reserve(chunks_.size());
  for (Chunk& chunk : chunks_) {
    if (!out.empty() && mergeable(out.back(), chunk)) {
      Chunk& dst = out.back();
      dst.points.insert(dst.points.end(), chunk.points.begin(),
                        chunk.points.end());
      dst.end_us = chunk.end_us;
      ++merges;
      continue;
    }
    out.push_back(std::move(chunk));
  }
  chunks_ = std::move(out);
  refresh_compact_due();
  return merges;
}

// ---- Measurement -----------------------------------------------------------

std::optional<TimePoint> Measurement::newest() const {
  if (points_ == 0) return std::nullopt;
  return TimePoint::from_micros(newest_us_);
}

const Series* Measurement::find_series(const Tags& tags) const {
  const auto it = series_.find(tags_key(tags));
  return it == series_.end() ? nullptr : &it->second;
}

void Measurement::append(std::string_view key, std::span<const TagView> tags,
                         Point p) {
  auto it = series_.lower_bound(key);
  if (it == series_.end() || it->first != key) {
    it = series_.emplace_hint(it, std::string(key),
                              Series{Tags(tags.begin(), tags.end()), options_});
  }
  it->second.append(p);
  ++points_;
  newest_us_ = std::max(newest_us_, p.time.micros_since_epoch());
}

std::size_t Measurement::drop_before(TimePoint horizon) {
  // A series retention leaves with no points and no rollup buckets can
  // never contribute to a query again, so it is erased: every later
  // per-series walk then costs O(live series), not O(series ever written).
  // Only series with something due are touched: drop_before on any other
  // is a no-op (Series::drop_due_us is exact).
  const std::int64_t h = horizon.micros_since_epoch();
  std::size_t dropped = 0;
  for (auto it = series_.begin(); it != series_.end();) {
    if (it->second.drop_due_us() > h) {
      ++it;
      continue;
    }
    dropped += it->second.drop_before(horizon);
    it = it->second.empty() ? series_.erase(it) : std::next(it);
  }
  points_ -= dropped;
  return dropped;
}

std::size_t Measurement::compact(std::int64_t sealed_before_us) {
  std::size_t merges = 0;
  for (auto& [key, s] : series_) {
    if (s.compact_due_us() > sealed_before_us) continue;
    merges += s.compact(sealed_before_us);
  }
  return merges;
}

// ---- Database --------------------------------------------------------------

Database::Database(DatabaseConfig config)
    : config_(config),
      series_options_{config.chunk_width.micros_count(), config.rollups},
      shards_(std::max<std::size_t>(1, config.shards)) {
  SGXO_CHECK_MSG(config_.chunk_width > Duration{},
                 "chunk width must be positive");
  config_.shards = shards_.size();
}

std::size_t Database::route(std::string_view routing) const {
  if (shards_.size() == 1) return 0;
  return static_cast<std::size_t>(fnv1a(routing) % shards_.size());
}

std::size_t Database::shard_of(const std::string& measurement,
                               const Tags& tags) const {
  std::string routing;
  render_series(routing, measurement, tag_views(tags));
  return route(routing);
}

Measurement& Database::measurement_in(Shard& shard, std::string_view name) {
  auto it = shard.measurements.find(name);
  if (it == shard.measurements.end()) {
    it = shard.measurements
             .emplace(std::string(name),
                      Measurement{std::string(name), series_options_})
             .first;
  }
  return it->second;
}

bool Database::write(std::string_view measurement, const Tags& tags,
                     TimePoint time, double value) {
  const std::vector<TagView> views = tag_views(tags);
  const Sample sample{measurement, views, time, value};
  return write_many({&sample, 1}) == 1;
}

std::size_t Database::write_many(std::span<const Sample> batch) {
  // Every sample is checked before any lands; then one pass routes each
  // sample, counts it against its shard under a write fault, and appends
  // it otherwise.
  for (const Sample& sample : batch) check_sample(sample);
  std::string buf;  // "measurement\ntags_key", storage reused per sample
  std::size_t accepted = 0;
  const Shard* m_shard = nullptr;  // shard `m` lives in
  Measurement* m = nullptr;
  for (const Sample& sample : batch) {
    const std::string_view key =
        render_series(buf, sample.measurement, sample.tags);
    Shard& shard = shards_[route(buf)];
    if (write_fault_ || shard.write_fault) {
      ++shard.failed_writes;
      continue;
    }
    if (m_shard != &shard || m->name() != sample.measurement) {
      m = &measurement_in(shard, sample.measurement);
      m_shard = &shard;
    }
    m->append(key, sample.tags, Point{sample.time, sample.value});
    ++accepted;
  }
  return accepted;
}

bool Database::has_measurement(const std::string& name) const {
  for (const Shard& shard : shards_) {
    if (shard.measurements.count(name) != 0) return true;
  }
  return false;
}

std::vector<std::string> Database::measurement_names() const {
  std::vector<std::string> names;
  for (const Shard& shard : shards_) {
    for (const auto& [name, m] : shard.measurements) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::size_t Database::total_points() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [name, m] : shard.measurements) {
      total += m.point_count();
    }
  }
  return total;
}

std::size_t Database::series_count(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.series_count();
  }
  return total;
}

std::size_t Database::points_in(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const auto it = shard.measurements.find(measurement);
    if (it != shard.measurements.end()) total += it->second.point_count();
  }
  return total;
}

std::size_t Database::chunk_count(const std::string& measurement) const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const auto it = shard.measurements.find(measurement);
    if (it == shard.measurements.end()) continue;
    it->second.for_each_series(
        [&](const Series& s) { total += s.chunk_count(); });
  }
  return total;
}

void Database::for_each_series(
    const std::string& measurement,
    const std::function<void(const Series&)>& f) const {
  // K-way merge over the per-shard series maps: each shard's map is
  // already in tags_key order and the key space partitions across shards,
  // so merging by key reproduces the 1-shard iteration order exactly.
  struct Cursor {
    Measurement::SeriesMap::const_iterator it;
    Measurement::SeriesMap::const_iterator end;
  };
  std::vector<Cursor> cursors;
  for (const Shard& shard : shards_) {
    const auto m = shard.measurements.find(measurement);
    if (m == shard.measurements.end()) continue;
    cursors.push_back({m->second.series_begin(), m->second.series_end()});
  }
  while (true) {
    Cursor* best = nullptr;
    for (Cursor& cursor : cursors) {
      if (cursor.it == cursor.end) continue;
      if (best == nullptr || cursor.it->first < best->it->first) {
        best = &cursor;
      }
    }
    if (best == nullptr) break;
    f(best->it->second);
    ++best->it;
  }
}

void Database::for_each_series_in_shard(
    const std::string& measurement, std::size_t shard_index,
    const std::function<void(const std::string&, const Series&)>& f) const {
  const Shard& shard = shards_[shard_index];
  const auto it = shard.measurements.find(measurement);
  if (it == shard.measurements.end()) return;
  it->second.for_each_keyed_series(f);
}

std::size_t Database::enforce_retention(TimePoint now, Duration retention) {
  SGXO_CHECK(retention > Duration{});
  const TimePoint horizon = now - retention;
  std::size_t dropped = 0;
  for (Shard& shard : shards_) {
    for (auto& [name, m] : shard.measurements) {
      dropped += m.drop_before(horizon);
    }
  }
  return dropped;
}

std::size_t Database::compact(TimePoint now) {
  const std::int64_t sealed_before =
      now.micros_since_epoch() - config_.chunk_width.micros_count();
  std::size_t merges = 0;
  for (Shard& shard : shards_) {
    std::size_t shard_merges = 0;
    for (auto& [name, m] : shard.measurements) {
      shard_merges += m.compact(sealed_before);
    }
    shard.compactions += shard_merges;
    merges += shard_merges;
  }
  return merges;
}

std::size_t Database::maintain(TimePoint now, Duration retention) {
  const std::size_t dropped = enforce_retention(now, retention);
  compact(now);
  return dropped;
}

std::uint64_t Database::compactions() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.compactions;
  return total;
}

std::uint64_t Database::failed_writes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.failed_writes;
  return total;
}

void Database::set_shard_write_fault(std::size_t shard, bool faulted) {
  SGXO_CHECK(shard < shards_.size());
  shards_[shard].write_fault = faulted;
}

bool Database::shard_write_fault(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].write_fault;
}

std::uint64_t Database::shard_failed_writes(std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].failed_writes;
}

void Database::set_shard_read_horizon(std::size_t shard,
                                      std::optional<TimePoint> horizon) {
  SGXO_CHECK(shard < shards_.size());
  shards_[shard].read_horizon = horizon;
}

std::optional<TimePoint> Database::shard_read_horizon(
    std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  return shards_[shard].read_horizon;
}

std::optional<TimePoint> Database::effective_read_horizon(
    std::size_t shard) const {
  SGXO_CHECK(shard < shards_.size());
  const std::optional<TimePoint>& local = shards_[shard].read_horizon;
  if (!read_horizon_.has_value()) return local;
  if (!local.has_value()) return read_horizon_;
  return std::min(*read_horizon_, *local);
}

std::optional<TimePoint> Database::newest_time(
    const std::string& measurement) const {
  std::optional<TimePoint> newest;
  for (std::size_t idx = 0; idx < shards_.size(); ++idx) {
    const std::optional<TimePoint> horizon = effective_read_horizon(idx);
    const Shard& shard = shards_[idx];
    const auto it = shard.measurements.find(measurement);
    if (it == shard.measurements.end()) continue;
    const auto consider = [&](std::optional<TimePoint> t) {
      if (t.has_value() && (!newest.has_value() || *t > *newest)) newest = t;
    };
    if (!horizon.has_value()) {
      consider(it->second.newest());
      continue;
    }
    it->second.for_each_series(
        [&](const Series& series) { consider(series.newest(horizon)); });
  }
  return newest;
}

}  // namespace sgxo::tsdb
