#include "workloads.hpp"

#include <array>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <type_traits>

#include "analysis/user_behavior.hpp"
#include "core/study.hpp"
#include "obs/report.hpp"
#include "predict/features.hpp"
#include "predict/harness.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "stream/ingest.hpp"
#include "synth/calibration.hpp"
#include "synth/dag.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"
#include "trace/system_spec.hpp"

namespace perfbench {

namespace {

using namespace lumos;

// ---------------------------------------------------------------- sizes

struct Sizes {
  double replay_days;          // BlueWaters and Philly, EASY/adaptive
  std::size_t dag_workflows;   // layered DAG workflows
  double conservative_bw_days;
  double conservative_philly_days;
  double characterize_days;    // all five systems
  double predict_days;         // Philly
  std::size_t predict_max_jobs;
};

Sizes sizes_for(Size size) {
  if (size == Size::Tiny) return {2.0, 300, 1.0, 1.0, 2.0, 3.0, 600};
  return {30.0, 30000, 10.0, 15.0, 30.0, 30.0, 4000};
}

constexpr double kDaySeconds = 86400.0;

/// The synthetic scenario the BlueWaters and Philly replays start from:
/// the repository's default seed, which the ROADMAP baselines also use.
constexpr std::uint64_t kReplayScenario = 42;

/// Largest submit-time shift the workload seed applies to a replay job.
constexpr double kReplayJitterS = 300.0;

// -------------------------------------------------- inputs held in memory

/// An istream over bytes owned elsewhere, so the timed phase parses the
/// serialised trace without first copying it.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

trace::Trace generate(std::string_view system, std::uint64_t seed,
                      double days, Tracer& tracer) {
  synth::GeneratorOptions options;
  options.seed = seed;
  options.duration_days = days;
  auto span = tracer.span("synth.generate");
  return synth::generate_system(system, options);
}

/// splitmix64: the benchmark's own generator for the replay jitter.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A replay input: the fixed scenario's trace of `system`, with every
/// submit time moved later by a seeded uniform draw in [0, 300 s).
/// Synthesising the replay traces from the seed itself would make the
/// benchmark measure the seed: fresh 30-day Philly traces for seeds 0-7
/// offer 0.5 to 1.7 times the machine's capacity and replay under EASY in
/// 10 to 135 us per job (4-core 2.1 GHz x86-64 VM). Jitter keeps the load
/// and the user population and still changes every input.
trace::Trace replay_trace(std::string_view system, std::uint64_t seed,
                          double days, Tracer& tracer) {
  const trace::Trace scenario =
      generate(system, kReplayScenario, days, tracer);
  std::uint64_t state = seed;
  std::vector<trace::Job> jobs(scenario.jobs().begin(),
                               scenario.jobs().end());
  for (trace::Job& job : jobs) {
    const double u =
        static_cast<double>(next_random(state) >> 11) * 0x1.0p-53;
    job.submit_time += kReplayJitterS * u;
  }
  auto span = tracer.span("trace.sort_by_submit");
  trace::Trace jittered(scenario.spec(), std::move(jobs));
  jittered.sort_by_submit();
  return jittered;
}

// ------------------------------------------------------------ sim units

template <typename T>
void put(Outputs& out, const std::string& key, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    out.add(key, v);
  } else {
    out.add_count(key, static_cast<std::uint64_t>(v));
  }
}

#define PERFBENCH_SIM_COUNTERS(X)                                        \
  X(events) X(completions) X(arrivals) X(event_batches)                  \
  X(scheduling_passes) X(sort_invocations) X(profile_rebuilds)           \
  X(profile_cache_hits) X(profile_invalidations) X(backfill_attempts)    \
  X(backfill_successes) X(audits) X(audit_failures) X(node_failures)     \
  X(node_recoveries) X(jobs_interrupted) X(retries) X(jobs_abandoned)    \
  X(work_lost_core_hours) X(dag_releases) X(dag_abandoned)               \
  X(events_cancelled) X(hedges_launched) X(hedges_won)                   \
  X(hedges_cancelled) X(hedge_wasted_core_hours)

#define PERFBENCH_SIM_METRICS(X)                                         \
  X(jobs) X(avg_wait) X(avg_bounded_slowdown) X(utilization)             \
  X(violation) X(violated_jobs) X(total_violation) X(makespan)           \
  X(backfilled_jobs) X(goodput_core_hours) X(wasted_core_hours)          \
  X(interrupted_jobs) X(abandoned_jobs) X(hedged_jobs)

Check run_sim(const trace::Trace& trace, const sim::SimConfig& config,
              Tracer& tracer) {
  sim::SimResult result;
  {
    auto span = tracer.span("sim.simulate");
    result = sim::simulate(trace, config);
  }
  sim::SimMetrics metrics;
  {
    auto span = tracer.span("sim.compute_metrics");
    metrics = sim::compute_metrics(trace, result, config.bsld_bound);
  }
  return [metrics, max_queue = result.max_queue_length] {
    UnitResult r;
#define X(field) put(r.outputs, "metrics." #field, metrics.field);
    PERFBENCH_SIM_METRICS(X)
#undef X
#define X(field) put(r.outputs, "counters." #field, metrics.counters.field);
    PERFBENCH_SIM_COUNTERS(X)
#undef X
    const sim::SimCounters& c = metrics.counters;
    r.counts = {
        {"sim.events", static_cast<double>(c.events)},
        {"sim.event_batches", static_cast<double>(c.event_batches)},
        {"sim.scheduling_passes", static_cast<double>(c.scheduling_passes)},
        {"sim.sort_invocations", static_cast<double>(c.sort_invocations)},
        {"sim.profile_rebuilds", static_cast<double>(c.profile_rebuilds)},
        {"sim.profile_cache_hits", static_cast<double>(c.profile_cache_hits)},
        {"sim.backfill_attempts", static_cast<double>(c.backfill_attempts)},
        {"sim.backfill_successes",
         static_cast<double>(c.backfill_successes)},
        {"sim.max_queue_length", static_cast<double>(max_queue)},
        {"sim.events_cancelled", static_cast<double>(c.events_cancelled)},
        {"sim.hedges_launched", static_cast<double>(c.hedges_launched)},
        {"sim.retries", static_cast<double>(c.retries)},
    };
    return r;
  };
}

Unit sim_unit(std::string name, const trace::Trace& trace,
              sim::SimConfig config) {
  return {std::move(name), trace.size(),
          [&trace, config](Tracer& tracer) {
            return run_sim(trace, config, tracer);
          }};
}

sim::SimConfig fcfs(sim::BackfillKind kind) {
  sim::SimConfig config;
  config.policy = sim::PolicyKind::Fcfs;
  config.backfill.kind = kind;
  return config;
}

struct ReplayEasy : Workload {
  trace::Trace bluewaters, philly, dag;

  ReplayEasy(std::uint64_t seed, const Sizes& s, Tracer& tracer) {
    bluewaters = replay_trace("BlueWaters", seed, s.replay_days, tracer);
    philly = replay_trace("Philly", seed, s.replay_days, tracer);
    {
      // Layered workflows on a machine of Theta's node count, arriving
      // over the same window as the replay traces, with 5% of tasks
      // stretched up to 20x.
      synth::DagWorkloadOptions gen;
      gen.seed = seed;
      gen.workflows = s.dag_workflows;
      gen.shape = synth::WorkflowShape::RandomLayered;
      gen.cluster_cores =
          static_cast<std::uint32_t>(trace::theta_spec().nodes);
      gen.mean_interarrival_s =
          s.replay_days * kDaySeconds / static_cast<double>(s.dag_workflows);
      synth::HeavyTailOptions tail;
      tail.seed = seed + 1;
      tail.fraction = 0.05;
      tail.max_multiplier = 20.0;
      auto span = tracer.span("synth.generate");
      dag = synth::inject_heavy_tail(synth::generate_dag_workload(gen), tail);
    }
    setup_counts = {{"synth.jobs", static_cast<double>(bluewaters.size() +
                                                       philly.size() +
                                                       dag.size())}};

    sim::SimConfig adaptive = fcfs(sim::BackfillKind::AdaptiveRelaxed);
    sim::SimConfig workflows;
    workflows.policy = sim::PolicyKind::CriticalPath;
    workflows.hedge.threshold = 1.25;
    workflows.hedge.min_planned_s = 60.0;
    workflows.fault.node_mtbf_s = 4.0 * 3600.0;
    workflows.fault.node_mttr_s = 1800.0;
    workflows.fault.retry_backoff_s = 120.0;
    workflows.fault.seed = seed;
    units = {sim_unit("bluewaters-easy", bluewaters,
                      fcfs(sim::BackfillKind::Easy)),
             sim_unit("philly-easy", philly, fcfs(sim::BackfillKind::Easy)),
             sim_unit("bluewaters-adaptive", bluewaters, adaptive),
             sim_unit("dag-hedge-faults", dag, workflows)};
  }
};

struct ReplayConservative : Workload {
  trace::Trace bluewaters, philly;

  ReplayConservative(std::uint64_t seed, const Sizes& s, Tracer& tracer) {
    bluewaters =
        replay_trace("BlueWaters", seed, s.conservative_bw_days, tracer);
    philly = replay_trace("Philly", seed, s.conservative_philly_days, tracer);
    setup_counts = {
        {"synth.jobs", static_cast<double>(bluewaters.size() + philly.size())}};
    const auto conservative = fcfs(sim::BackfillKind::Conservative);
    units = {sim_unit("bluewaters-conservative", bluewaters, conservative),
             sim_unit("philly-conservative", philly, conservative)};
  }
};

// --------------------------------------------------------- characterize

void feed(Digest& d, const stats::Summary& s) {
  d.u64(s.count);
  for (double v : {s.mean, s.stddev, s.min, s.p25, s.median, s.p75, s.p90,
                   s.p99, s.max, s.sum}) {
    d.f64(v);
  }
}
void feed(Digest& d, const stats::Ecdf& e) { d.f64s(e.sorted()); }
void feed(Digest& d, const stats::ViolinSummary& v) {
  d.f64s(v.grid);
  d.f64s(v.density);
  d.f64(v.mode);
  d.f64(v.bandwidth);
  d.u64(v.count);
}
template <std::size_t N>
void feed(Digest& d, const std::array<double, N>& a) {
  d.f64s(a);
}
template <std::size_t N>
void feed(Digest& d, const std::array<std::size_t, N>& a) {
  for (std::size_t v : a) d.u64(v);
}
template <typename Tally>
void feed_tally(Digest& d, const Tally& t) {
  feed(d, t.jobs);
  feed(d, t.core_hours);
}

void feed(Digest& d, const analysis::GeometryResult& r) {
  d.text(r.system);
  feed(d, r.runtime_cdf);
  feed(d, r.runtime_summary);
  feed(d, r.runtime_violin);
  feed(d, r.cores_cdf);
  feed(d, r.cores_summary);
  d.f64(r.frac_single_core);
  d.f64(r.frac_over_1000);
  d.f64(r.frac_over_10);
  feed(d, r.core_fraction_summary);
}
void feed(Digest& d, const analysis::ArrivalResult& r) {
  d.text(r.system);
  feed(d, r.interarrival_cdf);
  feed(d, r.interarrival_summary);
  d.f64(r.frac_within_10s);
  d.f64(r.frac_within_100s);
  d.f64s(r.hourly);
  for (double v : {r.hourly_max, r.hourly_min, r.peak_ratio,
                   r.business_hours_share, r.weekend_rate_ratio}) {
    d.f64(v);
  }
}
void feed(Digest& d, const analysis::DominationResult& r) {
  d.text(r.system);
  feed_tally(d, r.by_size);
  feed_tally(d, r.by_length);
  d.u64(static_cast<std::uint64_t>(r.dominant_size));
  d.u64(static_cast<std::uint64_t>(r.dominant_length));
  d.f64(r.dominant_size_share);
  d.f64(r.dominant_length_share);
}
void feed(Digest& d, const analysis::UtilizationResult& r) {
  d.text(r.system);
  d.f64(r.bucket_seconds);
  d.f64s(r.series);
  for (double v : {r.average, r.median, r.frac_above_80, r.clamped_fraction}) {
    d.f64(v);
  }
  d.f64s(r.per_vc_average);
}
void feed(Digest& d, const analysis::WaitingResult& r) {
  d.text(r.system);
  feed(d, r.wait_cdf);
  feed(d, r.turnaround_cdf);
  feed(d, r.wait_summary);
  feed(d, r.turnaround_summary);
  d.f64(r.frac_wait_under_10s);
  d.f64(r.frac_wait_over_10min);
  d.f64(r.frac_wait_over_90min);
  feed(d, r.mean_wait_by_size);
  feed(d, r.jobs_by_size);
  feed(d, r.mean_wait_by_length);
  feed(d, r.jobs_by_length);
  d.u64(static_cast<std::uint64_t>(r.longest_wait_size));
  d.u64(static_cast<std::uint64_t>(r.longest_wait_length));
}
void feed(Digest& d, const analysis::FailureResult& r) {
  d.text(r.system);
  feed_tally(d, r.overall);
  for (const auto& t : r.by_size) feed_tally(d, t);
  for (const auto& t : r.by_length) feed_tally(d, t);
  d.f64(r.pass_rate_size_trend);
  d.f64(r.pass_rate_length_trend);
}
void feed(Digest& d, const analysis::RepetitionResult& r) {
  d.text(r.system);
  feed(d, r.cumulative_share);
  d.u64(r.representative_users);
  d.f64(r.mean_groups_per_user);
}
void feed(Digest& d, const analysis::QueueBehaviorResult& r) {
  d.text(r.system);
  d.u64(r.max_queue);
  feed(d, r.jobs_per_bucket);
  for (const auto& mix : r.size_mix) feed(d, mix);
  for (const auto& mix : r.length_mix) feed(d, mix);
  feed(d, r.mean_cores);
  feed(d, r.median_run);
}
void feed(Digest& d, const analysis::UserStatusResult& r) {
  d.text(r.system);
  d.u64(r.top_users.size());
  for (const auto& u : r.top_users) {
    d.u64(u.user);
    d.u64(u.jobs);
    for (const auto& s : u.runtime) feed(d, s);
    for (const auto& v : u.violin) feed(d, v);
  }
}

/// Digest of one analysis's per-system results.
template <typename Result>
std::string digest(const std::vector<Result>& results) {
  Digest d;
  for (const auto& r : results) feed(d, r);
  return d.hex();
}

/// Runs one CrossSystemStudy analysis inside its span.
template <typename Fn>
auto analyse(const char* span_name, Fn&& fn, Tracer& tracer) {
  auto span = tracer.span(span_name);
  return fn();
}

struct Characterize : Workload {
  struct System {
    trace::SystemSpec spec;
    std::string swf;
  };
  std::vector<System> systems;

  Characterize(std::uint64_t seed, const Sizes& s, Tracer& tracer) {
    std::uint64_t total = 0;
    for (auto& cal : synth::all_calibrations()) {
      synth::GeneratorOptions options;
      options.seed = seed;
      options.duration_days = s.characterize_days;
      trace::Trace t;
      {
        auto span = tracer.span("synth.generate");
        t = synth::WorkloadGenerator(std::move(cal), options).generate();
      }
      std::ostringstream out;
      {
        auto span = tracer.span("trace.write_swf");
        trace::write_swf(out, t);
      }
      systems.push_back({t.spec(), std::move(out).str()});
      total += t.size();
    }
    setup_counts = {{"synth.jobs", static_cast<double>(total)}};
    units = {{"study", total, [this](Tracer& t) { return study(t); }},
             {"stream", total, [this](Tracer& t) { return stream(t); }}};
  }

  Check study(Tracer& tracer) const {
    std::vector<trace::Trace> traces;
    double bytes = 0.0;
    for (const System& s : systems) {
      ViewBuf buf(s.swf);
      std::istream in(&buf);
      auto span = tracer.span("trace.read_swf");
      traces.push_back(trace::read_swf(in, s.spec));
      bytes += static_cast<double>(s.swf.size());
    }
    std::uint64_t parsed = 0;
    for (const auto& t : traces) parsed += t.size();
    const core::CrossSystemStudy study(std::move(traces));
    auto geometry = analyse("analysis.geometry",
                            [&] { return study.geometries(); }, tracer);
    auto arrival = analyse("analysis.arrival",
                           [&] { return study.arrivals(); }, tracer);
    auto domination = analyse("analysis.domination",
                              [&] { return study.dominations(); }, tracer);
    auto utilization = analyse("analysis.utilization",
                               [&] { return study.utilizations(); }, tracer);
    auto waiting = analyse("analysis.waiting",
                           [&] { return study.waitings(); }, tracer);
    auto failure = analyse("analysis.failure",
                           [&] { return study.failures(); }, tracer);
    auto repetition = analyse("analysis.repetition",
                              [&] { return study.repetitions(); }, tracer);
    auto queue = analyse("analysis.queue_behavior",
                         [&] { return study.queue_behaviors(); }, tracer);
    auto users = analyse("analysis.user_status",
                         [&] { return study.user_statuses(); }, tracer);
    return [parsed, bytes, geometry = std::move(geometry),
            arrival = std::move(arrival), domination = std::move(domination),
            utilization = std::move(utilization), waiting = std::move(waiting),
            failure = std::move(failure), repetition = std::move(repetition),
            queue = std::move(queue), users = std::move(users)] {
      UnitResult r;
      r.outputs.add_count("parsed_jobs", parsed);
      r.outputs.add_text("geometry", digest(geometry));
      r.outputs.add_text("arrival", digest(arrival));
      r.outputs.add_text("domination", digest(domination));
      r.outputs.add_text("utilization", digest(utilization));
      r.outputs.add_text("waiting", digest(waiting));
      r.outputs.add_text("failure", digest(failure));
      r.outputs.add_text("repetition", digest(repetition));
      r.outputs.add_text("queue_behavior", digest(queue));
      r.outputs.add_text("user_status", digest(users));
      r.counts = {{"trace.swf_bytes", bytes},
                  {"trace.parsed_jobs", static_cast<double>(parsed)}};
      return r;
    };
  }

  Check stream(Tracer& tracer) const {
    struct Stream {
      std::string system;
      obs::Report report;
      std::uint64_t events = 0;
      std::uint64_t bad_rows = 0;
    };
    std::vector<Stream> streams;
    for (const System& s : systems) {
      stream::IngestOptions options;
      options.output_path.clear();
      options.report_every_events = 0;
      options.config.epoch_unix = s.spec.epoch_unix;
      options.config.utc_offset_hours = s.spec.utc_offset_hours;
      ViewBuf buf(s.swf);
      std::istream in(&buf);
      std::optional<stream::IngestResult> result;
      {
        auto span = tracer.span("stream.ingest_stream");
        result.emplace(stream::ingest_stream(in, options));
      }
      Stream out{s.spec.name, {}, result->events, result->bad_rows};
      {
        auto span = tracer.span("stream.publish");
        result->characterizer.publish(out.report, "stream.");
      }
      streams.push_back(std::move(out));
    }
    return [streams = std::move(streams)] {
      UnitResult r;
      double events = 0.0;
      double bad_rows = 0.0;
      for (const Stream& s : streams) {
        for (const auto& [key, value] : s.report.metrics) {
          r.outputs.add(s.system + "." + key, value);
        }
        r.outputs.add_count(s.system + ".events", s.events);
        r.outputs.add_count(s.system + ".bad_rows", s.bad_rows);
        events += static_cast<double>(s.events);
        bad_rows += static_cast<double>(s.bad_rows);
      }
      r.counts = {{"stream.events", events}, {"stream.bad_rows", bad_rows}};
      return r;
    };
  }
};

// -------------------------------------------------------------- predict

struct Predict : Workload {
  trace::Trace philly;
  std::size_t max_jobs = 0;

  Predict(std::uint64_t seed, const Sizes& s, Tracer& tracer)
      : max_jobs(s.predict_max_jobs) {
    philly = generate("Philly", seed, s.predict_days, tracer);
    setup_counts = {{"synth.jobs", static_cast<double>(philly.size())}};
    units.push_back({"features", philly.size(),
                     [this](Tracer& t) { return features(t); }});
    for (auto [name, kind] :
         {std::pair{"model.last2", predict::ModelKind::Last2},
          std::pair{"model.tobit", predict::ModelKind::Tobit},
          std::pair{"model.xgboost", predict::ModelKind::Xgboost},
          std::pair{"model.linear", predict::ModelKind::LinearReg},
          std::pair{"model.mlp", predict::ModelKind::Mlp}}) {
      units.push_back({name, philly.size(),
                       [this, kind](Tracer& t) { return model(kind, t); }});
    }
  }

  Check features(Tracer& tracer) const {
    std::vector<predict::JobFeatures> feats;
    {
      auto span = tracer.span("predict.extract_features");
      feats = predict::extract_features(philly);
    }
    if (feats.size() > max_jobs) feats.resize(max_jobs);
    auto data = std::make_shared<ml::Dataset>();
    {
      auto span = tracer.span("predict.build_dataset");
      *data = predict::build_dataset(feats, {});
    }
    return [data] {
      UnitResult r;
      Digest d;
      for (std::size_t i = 0; i < data->x.rows(); ++i) d.f64s(data->x.row(i));
      d.f64s(data->y);
      r.outputs.add_count("rows", data->size());
      r.outputs.add_text("dataset", d.hex());
      return r;
    };
  }

  Check model(predict::ModelKind kind, Tracer& tracer) const {
    predict::StudyConfig config;
    config.max_jobs = max_jobs;
    config.models = {kind};
    predict::StudyResult result;
    {
      auto span = tracer.span("predict.run_prediction_study");
      result = predict::run_prediction_study(philly, config);
    }
    return [result = std::move(result)] {
      UnitResult r;
      r.outputs.add("avg_runtime_s", result.avg_runtime_s);
      for (const auto& row : result.rows) {
        const std::string key = predict::to_string(row.model) +
                                (row.with_elapsed ? ".elapsed." : ".base.") +
                                exact(row.elapsed_fraction);
        r.outputs.add(key + ".accuracy", row.accuracy);
        r.outputs.add(key + ".underestimate_rate", row.underestimate_rate);
        r.outputs.add_count(key + ".test_jobs", row.test_jobs);
      }
      return r;
    };
  }
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "replay-easy", "replay-conservative", "characterize", "predict"};
  return names;
}

std::unique_ptr<Workload> set_up(const std::string& name, std::uint64_t seed,
                                 Size size, Tracer& tracer) {
  const Sizes s = sizes_for(size);
  if (name == "replay-easy") {
    return std::make_unique<ReplayEasy>(seed, s, tracer);
  }
  if (name == "replay-conservative") {
    return std::make_unique<ReplayConservative>(seed, s, tracer);
  }
  if (name == "characterize") {
    return std::make_unique<Characterize>(seed, s, tracer);
  }
  if (name == "predict") return std::make_unique<Predict>(seed, s, tracer);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
