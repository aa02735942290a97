// Borg-replay benchmark binary.
//
// Runs one replay of a generated Borg slice per process and prints one JSON
// object on stdout. Two passes:
//
//   untraced  times `exp::run_replay` with nothing attached (end-to-end
//             metrics), after timing the slice generation and cluster
//             assembly several times on their own (set-up metric);
//   traced    replays the same options again through the public pieces,
//             with a timer and a span around each call into a layer, and
//             reports per-layer numbers. Periodic components are wrapped by
//             cancelling their own timer and re-arming an identical one
//             straight away, so the event order — and with it every outcome —
//             matches the untraced pass bit for bit (the digests prove it).
//
// Usage:
//   replay_bench untraced --workload W --seed N [--setup-reps K]
//   replay_bench traced   --workload W --seed N [--spans FILE]
//   replay_bench workloads
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/metrics_view.hpp"
#include "exp/replay.hpp"
#include "trace/replayer.hpp"
#include "trace/sgx_mix.hpp"
#include "workload/stressor.hpp"

namespace {

using namespace sgxo;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  int hours;             // trace hours in the slice, 663 jobs each
  double sgx_fraction;
  std::optional<Bytes> epc_usable;  // Fig. 7 shrunken EPC
  bool default_scheduler;
  int sub_seeds;         // replays per benchmark run (one slice each)
  int traced_sub_seeds;  // of those, replayed traced for per-layer numbers
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"steady_paper", 3, 0.5, std::nullopt, false, 10, 4},
      {"fig7_backlog", 1, 1.0, mib(32), false, 18, 6},
      {"default_sched", 8, 0.5, std::nullopt, true, 8, 4},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

constexpr std::size_t kJobsPerHour = 663;
constexpr std::size_t kOverAllocatingPerHour = 44;

exp::ReplayOptions make_options(const Workload& w, std::uint64_t seed) {
  exp::ReplayOptions options;
  options.sgx_fraction = w.sgx_fraction;
  options.policy = core::PlacementPolicy::kBinpack;
  options.epc_usable_override = w.epc_usable;
  options.use_default_scheduler = w.default_scheduler;
  options.seed = seed;
  options.trace_config.seed = seed;
  options.trace_config.arrivals = trace::ArrivalPattern::kUniform;
  const Duration slice = Duration::hours(w.hours);
  options.trace_config.slice_end = options.trace_config.slice_start + slice;
  options.trace_config.slice_jobs = kJobsPerHour * w.hours;
  options.trace_config.over_allocating_jobs = kOverAllocatingPerHour * w.hours;
  options.cluster.tsdb_shards = 1;
  // The library default (24 h) silently cuts long or congested slices
  // short. Derive the deadline from the slice instead, with room for the
  // deepest backlog any workload builds; a replay that still hits it is
  // reported as failed, never as fast.
  options.deadline = slice * 12 + Duration::hours(6);
  return options;
}

// ---- outcome digest and virtual-time metrics --------------------------------

struct Outcome {
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  std::size_t jobs = 0;
  std::size_t terminal = 0;
  double makespan_s = 0.0;
  double wait_p50_s = 0.0;
  double wait_p95_s = 0.0;
  double turnaround_mean_s = 0.0;

  void mix(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      digest *= 1099511628211ULL;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ULL;
    }
    mix(static_cast<std::int64_t>(s.size()));
  }
};

std::int64_t micros_or_minus(const std::optional<Duration>& d) {
  return d.has_value() ? d->micros_count() : -1;
}

/// Digest over per-job (name, wait, turnaround, failed) in submission order
/// plus the makespan; waits feed the Fig. 8 percentiles.
Outcome summarize(const std::vector<exp::JobOutcome>& jobs,
                  Duration makespan) {
  Outcome out;
  std::vector<double> waits;
  double turnaround_sum = 0.0;
  for (const exp::JobOutcome& job : jobs) {
    out.mix(job.pod);
    out.mix(micros_or_minus(job.waiting));
    out.mix(micros_or_minus(job.turnaround));
    out.mix(job.failed ? 1 : 0);
    ++out.jobs;
    if (job.turnaround.has_value()) {
      ++out.terminal;
      turnaround_sum += job.turnaround->as_seconds();
    }
    if (job.waiting.has_value()) waits.push_back(job.waiting->as_seconds());
  }
  out.mix(makespan.micros_count());
  out.makespan_s = makespan.as_seconds();
  if (out.terminal > 0) {
    out.turnaround_mean_s = turnaround_sum / static_cast<double>(out.terminal);
  }
  if (!waits.empty()) {
    const EmpiricalCdf cdf{waits};
    out.wait_p50_s = cdf.quantile(0.50);
    out.wait_p95_s = cdf.quantile(0.95);
  }
  return out;
}

// ---- JSON output ------------------------------------------------------------

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void integer(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void boolean(const char* key, bool v) { field(key, v ? "true" : "false"); }
  void str(const char* key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void put_outcome(JsonObject& json, const Outcome& o, bool completed) {
  json.boolean("completed", completed);
  json.str("digest", hex64(o.digest));
  json.integer("jobs", o.jobs);
  json.integer("terminal", o.terminal);
  json.num("sim_makespan_s", o.makespan_s);
  json.num("sim_wait_p50_s", o.wait_p50_s);
  json.num("sim_wait_p95_s", o.wait_p95_s);
  json.num("sim_turnaround_mean_s", o.turnaround_mean_s);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- assembly shared by the set-up timing and the traced pass ---------------
//
// Mirrors the first half of exp::run_replay step by step (same calls, same
// order) so the traced pass schedules exactly the events the untraced one
// does.

/// exp::run_replay's capping rule, restated: SGX fractions are capped to
/// whole pages of the usable EPC so every job fits some node.
std::size_t cap_to_capacity(std::vector<trace::TraceJob>& jobs,
                            const trace::ScalingConfig& scaling,
                            Bytes usable_epc) {
  const Pages cap_pages{usable_epc.count() / Pages::kPageSize};
  const double cap_fraction =
      static_cast<double>(cap_pages.as_bytes().count()) /
      static_cast<double>(scaling.sgx_base.count());
  std::size_t capped = 0;
  for (trace::TraceJob& job : jobs) {
    if (!job.sgx) continue;
    bool touched = false;
    if (job.assigned_memory > cap_fraction) {
      job.assigned_memory = cap_fraction;
      touched = true;
    }
    if (job.max_memory_usage > cap_fraction) {
      job.max_memory_usage = cap_fraction;
      touched = true;
    }
    if (touched) ++capped;
  }
  return capped;
}

struct Assembly {
  std::vector<trace::TraceJob> jobs;
  std::unique_ptr<exp::SimulatedCluster> cluster;
  orch::Scheduler* scheduler = nullptr;
  core::SgxAwareScheduler* sgx_scheduler = nullptr;  // null for the default
};

/// Generates the slice and assembles the cluster. `after_scheduler` and
/// `after_monitoring` run straight after the scheduler is started and after
/// monitoring is started, the two points where the traced pass re-arms
/// periodic timers.
template <class AfterScheduler, class AfterMonitoring>
Assembly assemble(const exp::ReplayOptions& options,
                  AfterScheduler&& after_scheduler,
                  AfterMonitoring&& after_monitoring) {
  Assembly a;
  trace::BorgTraceGenerator generator{options.trace_config};
  a.jobs = generator.evaluation_slice();
  Rng rng{options.seed};
  trace::designate_sgx(a.jobs, options.sgx_fraction, rng);

  exp::ClusterConfig config = options.cluster;
  config.enforce_epc_limits = options.enforce_limits;
  config.epc_usable_override = options.epc_usable_override;
  config.sgx_version = options.sgx_version;
  a.cluster = std::make_unique<exp::SimulatedCluster>(config);

  const Bytes usable_epc = options.epc_usable_override.has_value()
                               ? *options.epc_usable_override
                               : sgx::EpcConfig::sgx1().usable;
  cap_to_capacity(a.jobs, options.scaling, usable_epc);

  if (options.use_default_scheduler) {
    a.scheduler = &a.cluster->add_default_scheduler();
  } else {
    a.sgx_scheduler = &a.cluster->add_sgx_scheduler(options.policy);
    a.scheduler = a.sgx_scheduler;
  }
  after_scheduler(a);
  a.scheduler->set_strict_fcfs(options.strict_fcfs);
  a.cluster->api().set_default_scheduler(a.scheduler->name());
  a.cluster->start_monitoring();
  after_monitoring(a);
  return a;
}

// ---- untraced pass ----------------------------------------------------------

int run_untraced(const Workload& w, std::uint64_t seed, int setup_reps) {
  const exp::ReplayOptions options = make_options(w, seed);

  std::vector<double> setups;
  for (int i = 0; i < setup_reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    assemble(options, [](Assembly&) {}, [](Assembly&) {});
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(setups.begin(), setups.end());

  const Clock::time_point t0 = Clock::now();
  const exp::ReplayResult result = exp::run_replay(options);
  const double replay_s = seconds_between(t0, Clock::now());

  const Outcome outcome = summarize(result.jobs, result.makespan);
  JsonObject json;
  json.str("pass", "untraced");
  json.num("replay_s", replay_s);
  json.num("setup_s", setups.empty() ? 0.0 : setups[setups.size() / 2]);
  json.num("peak_rss_mib", peak_rss_mib());
  json.integer("expected_jobs", options.trace_config.slice_jobs);
  put_outcome(json, outcome, result.completed);
  json.print();
  return 0;
}

// ---- traced pass ------------------------------------------------------------

/// In-memory spans, written as Chrome trace-event JSON at the end.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span under the innermost open one; returns its id.
  std::size_t open(const char* name, Clock::time_point start) {
    const std::size_t id = spans_.size();
    const std::size_t parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(Span{name, start, start, parent});
    stack_.push_back(id);
    return id;
  }
  void close(std::size_t id, Clock::time_point end) {
    spans_[id].end = end;
    stack_.pop_back();
  }

  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = micros(s.start);
      const double dur = micros(s.end) - ts;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld}}",
                   i == 0 ? "" : ",\n", s.name, ts, dur, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent;
  };
  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Host time of every call into one layer.
struct Layer {
  std::vector<double> call_s;
  double total_s = 0.0;

  void add(double s) {
    call_s.push_back(s);
    total_s += s;
  }
  /// Nearest-rank percentile in microseconds (0 when never called).
  [[nodiscard]] double percentile_us(double q) const {
    if (call_s.empty()) return 0.0;
    std::vector<double> sorted = call_s;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1] * 1e6;
  }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : spans(origin) {}

  /// Runs `f` inside a span named `name`, charging its time to `layer`.
  template <class F>
  decltype(auto) timed(Layer& layer, const char* name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t id = spans.open(name, t0);
    struct Close {
      Tracer* tracer;
      Layer* layer;
      std::size_t id;
      Clock::time_point t0;
      ~Close() {
        const Clock::time_point t1 = Clock::now();
        tracer->spans.close(id, t1);
        layer->add(seconds_between(t0, t1));
      }
    } close{this, &layer, id, t0};
    return f();
  }

  Spans spans;
};

int run_traced(const Workload& w, std::uint64_t seed,
               const std::string& spans_path) {
  const exp::ReplayOptions options = make_options(w, seed);
  const Clock::time_point origin = Clock::now();
  Tracer tracer{origin};
  const std::size_t root = tracer.spans.open("replay", origin);

  Layer setup, schedule, cycle, query, scrape, probe, sample, done_check,
      slice, wrapped;
  std::uint64_t offered = 0;  // pending pods offered to the scheduler
  std::uint64_t query_runs = 0, series_scanned = 0, points_scanned = 0;
  std::uint64_t epc_overcommits = 0;
  std::optional<core::ClusterMetrics> shadow;
  std::vector<sim::EventId> timers;

  // Every wrapper charges its whole body to `wrapped`, so the event loop's
  // self time excludes the benchmark's own bookkeeping too.
  const auto wrap = [&](auto body) {
    return [&wrapped, body] {
      const Clock::time_point t0 = Clock::now();
      body();
      wrapped.add(seconds_between(t0, Clock::now()));
    };
  };

  const auto rearm_scheduler = [&](Assembly& a) {
    exp::SimulatedCluster* cl = a.cluster.get();
    orch::Scheduler* scheduler = a.scheduler;
    core::SgxAwareScheduler* sgx = a.sgx_scheduler;
    if (sgx != nullptr) shadow.emplace(cl->db(), sgx->metrics().window());
    scheduler->stop();
    timers.push_back(cl->sim().schedule_every(
        scheduler->period(), scheduler->period(), wrap([&, cl, scheduler, sgx] {
          orch::PodFilter pending;
          pending.phase = cluster::PodPhase::kPending;
          pending.scheduler = scheduler->name();
          offered += cl->api().list_pods(pending).size();
          const std::uint64_t degraded = scheduler->degraded_cycles();
          tracer.timed(cycle, "sched.run_once",
                       [&] { return scheduler->run_once(); });
          if (sgx == nullptr) return;
          const core::ClusterMetrics::QueryDiagnostics& stats =
              sgx->metrics().last_query_stats();
          ++query_runs;
          series_scanned += stats.series_scanned;
          points_scanned += stats.points_scanned;
          // The cycle ran no query when it fell back to declared requests.
          if (scheduler->degraded_cycles() != degraded) return;
          const TimePoint now = cl->sim().now();
          tracer.timed(query, "tsdb.shadow_query", [&] {
            return shadow->epc_per_pod(now).size() +
                   shadow->memory_per_pod(now).size();
          });
        })));
  };

  const auto rearm_monitoring = [&](Assembly& a) {
    exp::SimulatedCluster& cluster = *a.cluster;
    cluster.heapster().stop();
    cluster.daemonset().stop();  // also stops every probe's timer
    orch::Heapster* heapster = &cluster.heapster();
    const Duration heapster_period = cluster.config().heapster_period;
    timers.push_back(cluster.sim().schedule_every(
        heapster_period, heapster_period, wrap([&, heapster] {
          tracer.timed(scrape, "monitor.scrape_once",
                       [&] { heapster->scrape_once(); });
        })));
    // Probes re-armed in the DaemonSet's deployment order (node order).
    const Duration probe_period = cluster.config().probe_period;
    for (const orch::ApiServer::NodeEntry& entry : cluster.api().all_nodes()) {
      orch::SgxProbe* p = cluster.daemonset().probe(entry.node->name());
      if (p == nullptr) continue;
      timers.push_back(cluster.sim().schedule_every(
          probe_period, probe_period, wrap([&, p] {
            tracer.timed(probe, "monitor.probe_once", [&] { p->probe_once(); });
          })));
    }
    // Finds every probe already deployed and only re-arms reconciliation.
    cluster.daemonset().start();
  };

  Assembly a = tracer.timed(setup, "setup", [&] {
    return assemble(options, rearm_scheduler, rearm_monitoring);
  });
  exp::SimulatedCluster& cluster = *a.cluster;
  sim::Simulation& sim = cluster.sim();
  orch::ApiServer& api = cluster.api();

  const trace::ScalingConfig scaling = options.scaling;
  trace::Replayer replayer{
      sim, api, [&scaling](const trace::TraceJob& job, std::size_t) {
        return workload::stressor_pod(job, scaling, "", 1.0);
      }};
  tracer.timed(schedule, "trace.schedule",
               [&] { replayer.schedule(a.jobs); });

  // Pending-queue sampler, as in exp::run_replay, plus the EPC check.
  std::vector<cluster::Node*> sgx_nodes;
  for (cluster::Node* node : cluster.nodes()) {
    if (node->has_sgx()) sgx_nodes.push_back(node);
  }
  timers.push_back(sim.schedule_every(
      Duration{}, options.pending_sample_period, wrap([&] {
        tracer.timed(sample, "replay.sample", [&] {
          orch::PodFilter pending;
          pending.phase = cluster::PodPhase::kPending;
          Bytes epc{}, memory{};
          std::size_t pods = 0;
          for (const orch::PodRecord* record : api.list_pods(pending)) {
            const cluster::ResourceAmounts request =
                record->spec.total_requests();
            epc += request.epc_pages.as_bytes();
            memory += request.memory;
            ++pods;
          }
          return pods;
        });
        for (const cluster::Node* node : sgx_nodes) {
          const sgx::Driver& driver = *node->driver();
          if (driver.epc().committed_pages() > driver.total_epc_pages()) {
            ++epc_overcommits;
          }
        }
      })));

  std::set<std::string> trace_pods;
  for (const trace::TraceJob& job : a.jobs) {
    trace_pods.insert(workload::stressor_pod_name(job));
  }
  const auto trace_done = [&] {
    return tracer.timed(done_check, "replay.done_check", [&] {
      std::size_t terminal = 0;
      for (const orch::PodRecord* record : api.all_pods()) {
        if (trace_pods.find(record->spec.name) == trace_pods.end()) continue;
        if (record->phase == cluster::PodPhase::kSucceeded ||
            record->phase == cluster::PodPhase::kFailed) {
          ++terminal;
        }
      }
      return terminal == trace_pods.size();
    });
  };

  const std::uint64_t events_before = sim.fired_events();
  const TimePoint limit = sim.now() + options.deadline;
  while (sim.now() < limit && !trace_done()) {
    const TimePoint until = std::min(limit, sim.now() + Duration::seconds(30));
    tracer.timed(slice, "sim.run_until", [&] { sim.run_until(until); });
    if (sim.idle()) break;
  }
  const bool completed = trace_done();
  const std::uint64_t events = sim.fired_events() - events_before;
  for (const sim::EventId id : timers) sim.cancel(id);
  cluster.stop_all();

  // Collect exactly as exp::run_replay does.
  std::vector<exp::JobOutcome> jobs;
  TimePoint first = TimePoint::from_micros(
      std::numeric_limits<std::int64_t>::max());
  TimePoint last = TimePoint::epoch();
  for (const orch::PodRecord* record : api.all_pods()) {
    if (trace_pods.find(record->spec.name) == trace_pods.end()) continue;
    exp::JobOutcome o;
    o.pod = record->spec.name;
    o.waiting = record->waiting_time();
    o.turnaround = record->turnaround_time();
    o.failed = record->phase == cluster::PodPhase::kFailed;
    first = std::min(first, record->submitted);
    if (record->finished.has_value()) last = std::max(last, *record->finished);
    jobs.push_back(std::move(o));
  }
  const Duration makespan =
      !jobs.empty() && last > first ? last - first : Duration{};
  const Outcome outcome = summarize(jobs, makespan);

  const tsdb::Database& db = cluster.db();
  std::size_t series_end = 0;
  for (const std::string& m : db.measurement_names()) {
    series_end += db.series_count(m);
  }
  const std::size_t pods_stored = api.pod_count();

  const Clock::time_point end = Clock::now();
  tracer.spans.close(root, end);
  const double traced_s = seconds_between(origin, end);
  const bool spans_ok =
      spans_path.empty() || tracer.spans.write_chrome_trace(spans_path);

  const double self_s = slice.total_s - wrapped.total_s;
  const double q = static_cast<double>(std::max<std::uint64_t>(query_runs, 1));
  JsonObject json;
  json.str("pass", "traced");
  json.num("traced_s", traced_s);
  put_outcome(json, outcome, completed);
  json.integer("expected_jobs", options.trace_config.slice_jobs);
  json.integer("epc_overcommits", epc_overcommits);
  json.boolean("spans_written", spans_ok);
  json.integer("sched.cycles", a.scheduler->cycles());
  json.num("sched.cycle_s", cycle.total_s);
  json.num("sched.cycle_p50_us", cycle.percentile_us(0.50));
  json.num("sched.cycle_p99_us", cycle.percentile_us(0.99));
  json.num("sched.non_query_s", cycle.total_s - query.total_s);
  json.integer("sched.bound", a.scheduler->total_bound());
  json.integer("sched.bind_conflicts", a.scheduler->bind_conflicts());
  json.integer("sched.degraded_cycles", a.scheduler->degraded_cycles());
  json.num("sched.bind_yield",
           offered == 0 ? 0.0
                        : static_cast<double>(a.scheduler->total_bound()) /
                              static_cast<double>(offered));
  json.num("tsdb.query_s", query.total_s);
  json.num("tsdb.query_p50_us", query.percentile_us(0.50));
  json.num("tsdb.query_p99_us", query.percentile_us(0.99));
  json.num("tsdb.series_scanned_per_query",
           static_cast<double>(series_scanned) / q);
  json.num("tsdb.points_scanned_per_query",
           static_cast<double>(points_scanned) / q);
  json.num("tsdb.scan_yield",
           series_scanned == 0 ? 0.0
                               : static_cast<double>(points_scanned) /
                                     static_cast<double>(series_scanned));
  json.integer("tsdb.series_end", series_end);
  json.integer("tsdb.points_end", db.total_points());
  json.integer("tsdb.compactions", db.compactions());
  json.num("monitor.scrape_s", scrape.total_s);
  json.num("monitor.scrape_p99_us", scrape.percentile_us(0.99));
  json.num("monitor.probe_s", probe.total_s);
  json.num("replay.sample_s", sample.total_s);
  json.num("replay.done_check_s", done_check.total_s);
  json.num("trace.schedule_s", schedule.total_s);
  json.integer("api.pods_stored_end", pods_stored);
  json.integer("sim.events", events);
  json.num("sim.self_s", self_s);
  json.num("sim.host_us_per_event",
           events == 0 ? 0.0 : self_s * 1e6 / static_cast<double>(events));
  json.print();
  return 0;
}

// ---- command line -----------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: replay_bench untraced|traced --workload W --seed N "
               "[--setup-reps K] [--spans FILE]\n"
               "       replay_bench workloads\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "workloads") {
    for (const Workload& w : workloads()) {
      std::printf("%s %d %d\n", w.name, w.sub_seeds, w.traced_sub_seeds);
    }
    return 0;
  }
  std::string workload;
  std::string spans;
  std::uint64_t seed = 1;
  int setup_reps = 5;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--setup-reps") {
      setup_reps = std::stoi(value);
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return usage();
    }
  }
  try {
    const Workload& w = find_workload(workload);
    if (mode == "untraced") return run_untraced(w, seed, setup_reps);
    if (mode == "traced") return run_traced(w, seed, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
