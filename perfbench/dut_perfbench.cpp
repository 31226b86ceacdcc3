// dut_perfbench — the repository benchmark program.
//
// Drives the library only through its public headers, one workload per
// process:
//
//   congest_grid         Theorem 1.4 CONGEST trials on Graph::grid(64,64)
//   congest_star_faults  the resilient protocol on Graph::star(4096) under
//                        a 2% net::FaultPlan
//   serve_zipf           serve::VerdictService, closed-loop ingest + query
//   zero_round_mc        estimate_probability over run_threshold_network
//
// An op's input is a pure function of (seed, op index), and uniform and far
// inputs alternate. An untraced pass measures the end-to-end metrics. With
// --trace 1 a second, traced pass repeats the same ops with spans around
// every call into a layer and derives the per-layer metrics. README.md in
// this directory maps each metric to its layer and end-to-end metric.
//
// Usage: dut_perfbench --workload W --seed N --seconds S --trace 0|1
//                      [--tiny] [--git-describe STR]
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it carries the host/build fingerprint and the checks.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/core/sampler.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/obs/trace.hpp"
#include "dut/serve/service.hpp"
#include "dut/stats/bounds.hpp"
#include "dut/stats/engine.hpp"
#include "dut/stats/rng.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dut;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Wilson z of the plan-bound checks: the 3.89 the repo's
// probability-asserting tests use.
constexpr double kWilsonZ = 3.89;
// Untraced set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// Seed of the warm-up ops' inputs. Warm-up is part of set-up, and a fixed
// input keeps setup_s from varying with --seed.
constexpr std::uint64_t kWarmupSeed = 0;
// Traced ops must spend at least this share of their wall time in spans.
constexpr double kMinCoverage = 0.90;
// Ops of the 1-worker pass behind stats.speedup.
constexpr std::uint64_t kSpeedupOps = 16;
// Op k of a timed loop falls in slot k mod kSlots, and the end-to-end op
// times are the slots' fastest ops. Stateless workloads cycle through
// kSlots distinct inputs, so a slot is one input, timed once per cycle.
constexpr std::uint64_t kSlots = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string git_describe = "unknown";
};

// ---------------------------------------------------------------- results

/// Order-sensitive FNV-1a over 64-bit words: the verdict digest.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const core::Verdict& v) {
    add(v.accepts);
    add(static_cast<std::uint64_t>(v.status));
    add(v.votes_reject);
    add(v.votes_total);
    add(v.rounds);
    add(v.bits);
    add(v.samples_consumed);
  }
};

/// Verdict tallies for the plan-bound checks.
struct Tally {
  std::uint64_t uniform = 0;  ///< decisions on uniform inputs
  std::uint64_t false_rejects = 0;
  std::uint64_t far = 0;  ///< decisions on far inputs
  std::uint64_t false_accepts = 0;
  void add(const Tally& o) {
    uniform += o.uniform;
    false_rejects += o.false_rejects;
    far += o.far;
    false_accepts += o.false_accepts;
  }
};

/// Deterministic counts: they must repeat exactly for one seed.
struct Counts {
  std::uint64_t rounds = 0, wakes = 0, messages = 0, faults = 0,
                packages = 0, verdicts = 0, samples = 0, quorum_met = 0;
  void add(const Counts& o) {
    rounds += o.rounds;
    wakes += o.wakes;
    messages += o.messages;
    faults += o.faults;
    packages += o.packages;
    verdicts += o.verdicts;
    samples += o.samples;
    quorum_met += o.quorum_met;
  }
  /// Equality on the counts an untraced pass sees (wakes need the sink).
  bool same_untraced(const Counts& o) const {
    return rounds == o.rounds && messages == o.messages &&
           faults == o.faults && packages == o.packages &&
           verdicts == o.verdicts && samples == o.samples &&
           quorum_met == o.quorum_met;
  }
  bool operator==(const Counts& o) const {
    return same_untraced(o) && wakes == o.wakes;
  }
};

/// Layer span durations of one op, in ms (traced pass only).
struct Spans {
  /// Sum of the op's top-level layer spans: run_congest_uniformity,
  /// generate + ingest + query, or TrialRunner::estimate_probability.
  double covered = 0;
  double engine = 0;      ///< net: run_start -> run_end
  double congest = 0;     ///< run_congest_uniformity
  double generate = 0;    ///< WorkloadGenerator::generate_epoch
  double ingest = 0;      ///< VerdictService::ingest
  double query = 0;       ///< the op's VerdictService::query calls
  double trial_busy = 0;  ///< trial-callable time summed over workers
};

struct OpResult {
  bool ok = true;
  std::string error;
  double work = 0;  ///< throughput units completed
  double ms = 0;    ///< op wall time
  double cpu_ms = 0;  ///< op process CPU time
  std::uint64_t queries = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t trials = 0;
  Digest digest;
  Tally tally;
  Counts counts;
  Spans spans;
};

std::uint64_t op_seed(std::uint64_t seed, std::uint64_t salt,
                      std::uint64_t index) {
  stats::Xoshiro256 rng = stats::derive_stream(seed, salt, index);
  return rng();
}

// ------------------------------------------------------------------- net

/// Engine-boundary sink: times run_start -> run_end and sums the active
/// node count of every round (the engine's wakes).
class EngineSpanSink final : public obs::TraceSink {
 public:
  void on_run_start(const obs::TraceRunInfo&) override {
    start_ = Clock::now();
  }
  void on_round(std::uint64_t, std::uint32_t active) override {
    wakes_ += active;
  }
  void on_send(std::uint64_t, std::uint32_t, std::uint32_t,
               std::uint64_t) override {}
  void on_halt(std::uint64_t, std::uint32_t) override {}
  void on_violation(std::uint64_t, std::string_view,
                    std::string_view) override {}
  void on_run_end(const obs::TraceRunTotals&) override {
    engine_ms_ += ms_since(start_);
  }

  /// Returns and clears (engine ms, wakes) accumulated since the last take.
  std::pair<double, std::uint64_t> take() {
    const auto out = std::make_pair(engine_ms_, wakes_);
    engine_ms_ = 0;
    wakes_ = 0;
    return out;
  }

 private:
  Clock::time_point start_{};
  double engine_ms_ = 0;
  std::uint64_t wakes_ = 0;
};

// ------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs op `index` on inputs drawn from `seed`. Throws what the library
  /// throws.
  virtual OpResult run_op(std::uint64_t seed, std::uint64_t index,
                          bool traced) = 0;
  /// Attaches the engine-boundary sink (network workloads only).
  virtual void attach(EngineSpanSink*) {}
  virtual const net::Graph* graph() const { return nullptr; }
  /// Tallies that can only be drawn once the pass has ended.
  virtual Tally pass_tally() const { return {}; }

  std::uint64_t warmup_ops = 2;
  /// Distinct inputs the timed loop cycles through, or 0 when every op must
  /// be new because the workload keeps state from op to op.
  std::uint64_t inputs = kSlots;
  unsigned workers = 1;
  double bound_false_reject = 1.0;
  double bound_false_accept = 1.0;
  bool check_uniform_side = true;
  /// (n, s) at which the core sampling and collision kernels are probed.
  std::uint64_t probe_n = 0;
  std::uint64_t probe_s = 0;
  /// Set-up spans recorded during construction (congest.plan/setup).
  double plan_ms = 0;
  double setup_ms = 0;
};

class CongestWorkload final : public Workload {
 public:
  CongestWorkload(const Args& args, bool faulty)
      : faulty_(faulty),
        n_(args.tiny ? 1 << 11 : 1 << 12),
        eps_(args.tiny ? 1.6 : 1.2),
        side_(args.tiny ? 32 : 64),
        graph_(faulty ? net::Graph::star(side_ * side_)
                      : net::Graph::grid(side_, side_)),
        uniform_(core::uniform(n_)),
        far_(core::far_instance(n_, eps_)),
        faults_(0xE15) {
    const std::uint32_t k = side_ * side_;
    auto t0 = Clock::now();
    plan_ = congest::plan_congest(n_, k, eps_);
    plan_ms = ms_since(t0);
    if (!plan_.feasible) {
      throw std::runtime_error("congest plan infeasible: " +
                               plan_.infeasible_reason);
    }
    congest::CongestResilience opts;
    if (faulty) {
      // E15's 2% message-fault plan with the loose quorum k - k/8.
      net::FaultRates rates;
      rates.drop = 0.02;
      rates.duplicate = 0.01;
      rates.corrupt = 0.01;
      rates.delay = 0.01;
      rates.max_delay_rounds = 3;
      faults_.set_rates(rates);
      opts.enabled = true;
      opts.quorum_nodes = k - k / 8;
    }
    t0 = Clock::now();
    // CongestSetup is non-movable; the prvalue initialises the heap object.
    setup_.reset(new congest::CongestSetup(congest::make_congest_setup(
        plan_, graph_, opts, faulty ? &faults_ : nullptr)));
    setup_ms = ms_since(t0);
    bound_false_reject = plan_.bound_false_reject;
    bound_false_accept = plan_.bound_false_accept;
    // Faults bias the quorum rule toward reject by design, so only the far
    // side is held to the plan's bound.
    check_uniform_side = !faulty;
    probe_n = n_;
    probe_s = plan_.tau;
  }

  void attach(EngineSpanSink* sink) override {
    sink_ = sink;
    // One worker: the pool holds one engine, which every trial re-leases.
    net::ProtocolDriver::Lease lease = setup_->driver.acquire();
    lease.engine().set_trace_sink(sink);
  }
  const net::Graph* graph() const override { return &graph_; }

  OpResult run_op(std::uint64_t seed, std::uint64_t index,
                  bool traced) override {
    OpResult r;
    const bool far = (index & 1) != 0;
    const auto t0 = Clock::now();
    const congest::CongestRunResult res = congest::run_congest_uniformity(
        plan_, *setup_, far ? far_ : uniform_, op_seed(seed, 0xC0, index),
        /*traced=*/false);
    if (traced) {
      r.spans.congest = ms_since(t0);
      r.spans.covered = r.spans.congest;
      const auto [engine_ms, wakes] = sink_->take();
      r.spans.engine = engine_ms;
      r.counts.wakes = wakes;
    }
    r.work = 1;
    r.counts.rounds = res.metrics.rounds;
    r.counts.messages = res.metrics.messages;
    r.counts.faults = res.metrics.faults.total();
    r.counts.packages = res.num_packages;
    r.digest.add(res.verdict);
    r.digest.add(res.leader);
    r.digest.add(res.nodes_reporting);
    r.digest.add(res.metrics.messages);
    r.digest.add(res.metrics.faults.total());
    if (far) {
      r.tally.far = 1;
      r.tally.false_accepts = res.verdict.accepts ? 1 : 0;
    } else {
      r.tally.uniform = 1;
      r.tally.false_rejects = res.verdict.rejects() ? 1 : 0;
    }
    // The plain protocol forms exactly the plan's packages. Under faults
    // in-flight token loss may leave fewer (the quorum rule then rejects),
    // but an accept must have met the quorum.
    const bool packages_ok = faulty_
                                 ? res.num_packages <= plan_.num_packages
                                 : res.num_packages == plan_.num_packages;
    if (!packages_ok) {
      r.ok = false;
      r.error = "op " + std::to_string(index) + " formed " +
                std::to_string(res.num_packages) + " packages, plan has " +
                std::to_string(plan_.num_packages);
    } else if (faulty_ && res.verdict.accepts && !res.quorum_met) {
      r.ok = false;
      r.error = "op " + std::to_string(index) + " accepted without quorum";
    }
    if (faulty_) r.counts.quorum_met = res.quorum_met ? 1 : 0;
    return r;
  }

 private:
  bool faulty_;
  std::uint64_t n_;
  double eps_;
  std::uint32_t side_;
  net::Graph graph_;
  core::AliasSampler uniform_, far_;
  net::FaultPlan faults_;
  congest::CongestPlan plan_;
  std::unique_ptr<congest::CongestSetup> setup_;
  EngineSpanSink* sink_ = nullptr;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Args& args)
      : batch_(args.tiny ? 1 << 12 : 1 << 18),
        queries_(args.tiny ? 64 : 1024),
        service_(config(args)),
        arrivals_per_stream_(service_.config().streams, 0) {
    const serve::StreamPlan& plan = service_.plan();
    warmup_ops = 4;
    // The service keeps its streams across epochs: an epoch runs once.
    inputs = 0;
    bound_false_reject = plan.decision.bound_false_reject;
    bound_false_accept = plan.decision.bound_false_accept;
    probe_n = service_.config().domain;
    probe_s = plan.window_samples();
  }

  OpResult run_op(std::uint64_t seed, std::uint64_t index,
                  bool traced) override {
    OpResult r;
    const serve::WorkloadGenerator& gen = service_.workload();
    const std::uint64_t streams = service_.config().streams;
    stats::Xoshiro256 pick = stats::derive_stream(seed, 0x5E, index);
    query_ids_.clear();
    for (std::uint64_t q = 0; q < queries_; ++q) {
      query_ids_.push_back(pick() % streams);
    }
    arrivals_.clear();
    auto t0 = Clock::now();
    gen.generate_epoch(op_seed(seed, 0xA1, 0), index, batch_, arrivals_);
    if (traced) r.spans.generate = ms_since(t0);
    t0 = Clock::now();
    const serve::EpochResult epoch = service_.ingest(arrivals_);
    if (traced) r.spans.ingest = ms_since(t0);
    t0 = Clock::now();
    for (const std::uint64_t id : query_ids_) {
      r.digest.add(service_.query(id));
    }
    if (traced) {
      r.spans.query = ms_since(t0);
      r.spans.covered = r.spans.generate + r.spans.ingest + r.spans.query;
    }
    r.work = static_cast<double>(epoch.arrivals);
    r.arrivals = epoch.arrivals;
    r.queries = queries_;
    r.counts.verdicts = epoch.verdicts.size();
    for (const serve::Arrival& a : arrivals_) ++arrivals_per_stream_[a.stream];
    for (const serve::StreamVerdict& v : epoch.verdicts) {
      r.digest.add(v.stream);
      r.digest.add(v.cycle);
      r.digest.add(v.first_epoch);
      r.digest.add(v.epoch);
      r.digest.add(v.verdict);
      r.counts.samples += v.verdict.samples_consumed;
      if (!v.verdict.decided() || v.stream >= streams) {
        r.ok = false;
        r.error = "epoch " + std::to_string(index) +
                  " emitted an undecided or out-of-range verdict";
      }
      decisions_.push_back({static_cast<std::uint32_t>(v.stream),
                            static_cast<std::uint32_t>(v.cycle),
                            v.verdict.accepts});
    }
    if (epoch.arrivals != batch_ ||
        epoch.accepts + epoch.rejects != epoch.verdicts.size()) {
      r.ok = false;
      r.error = "epoch " + std::to_string(index) + " tallies disagree";
    }
    return r;
  }

 private:
  /// Per-decision error tallies. Reject cycles are shorter than accept
  /// cycles, so the share of rejects among the verdicts a stream has
  /// emitted so far over-states the per-decision rate. A cycle always ends
  /// within fixed_budget() samples, so cycle j has surely ended once its
  /// stream has received (j+1) * fixed_budget() arrivals. Arrival counts do
  /// not depend on sample values, so exactly those cycles are an unbiased
  /// sample of the per-decision law the plan bounds.
  Tally pass_tally() const override {
    Tally t;
    const std::uint64_t budget = service_.plan().fixed_budget();
    for (const Decision& d : decisions_) {
      if (arrivals_per_stream_[d.stream] < (d.cycle + 1) * budget) continue;
      if (service_.workload().is_far(d.stream)) {
        ++t.far;
        t.false_accepts += d.accepts ? 1 : 0;
      } else {
        ++t.uniform;
        t.false_rejects += d.accepts ? 0 : 1;
      }
    }
    return t;
  }

  static serve::ServeConfig config(const Args& args) {
    serve::ServeConfig c;
    c.domain = 1 << 12;
    c.epsilon = 1.6;
    c.streams = args.tiny ? 1 << 12 : 1 << 18;
    c.shards = 1;
    c.threads = 1;
    c.zipf_theta = 0.99;
    c.far_every = 16;
    c.batch_per_epoch = c.streams;
    return c;
  }

  std::uint64_t batch_;
  std::uint64_t queries_;
  serve::VerdictService service_;
  std::vector<serve::Arrival> arrivals_;
  std::vector<std::uint64_t> query_ids_;
  std::vector<std::uint64_t> arrivals_per_stream_;
  struct Decision {
    std::uint32_t stream;
    std::uint32_t cycle;
    bool accepts;
  };
  std::vector<Decision> decisions_;
};

class ZeroRoundWorkload final : public Workload {
 public:
  ZeroRoundWorkload(const Args& args, unsigned threads)
      : trials_(args.tiny ? 16 : 128),
        plan_(core::plan_threshold(kN, kK, kEps, 1.0 / 3.0,
                                   core::TailBound::kExactBinomial)),
        uniform_(core::uniform(kN)),
        far_(core::paninski_two_bump(kN, kEps)),
        runner_(threads) {
    if (!plan_.feasible) {
      throw std::runtime_error("threshold plan infeasible: " +
                               plan_.infeasible_reason);
    }
    workers = threads;
    bound_false_reject = plan_.bound_false_reject;
    bound_false_accept = plan_.bound_false_accept;
    probe_n = kN;
    probe_s = plan_.base.s;
  }

  OpResult run_op(std::uint64_t seed, std::uint64_t index,
                  bool traced) override {
    OpResult r;
    const bool far = (index & 1) != 0;
    const core::AliasSampler& sampler = far ? far_ : uniform_;
    // A trial "hits" when it errs: rejects uniform or accepts far.
    const auto trial = [&](stats::Xoshiro256& rng) {
      const core::Verdict v = core::run_threshold_network(plan_, sampler, rng);
      return far ? v.accepts : v.rejects();
    };
    std::atomic<std::uint64_t> busy_ns{0};
    const auto timed_trial = [&](stats::Xoshiro256& rng) {
      const auto t0 = Clock::now();
      const bool hit = trial(rng);
      busy_ns.fetch_add(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0)
                                .count()),
                        std::memory_order_relaxed);
      return hit;
    };
    const std::uint64_t trial_seed = op_seed(seed, 0x20, index);
    const auto t0 = Clock::now();
    const stats::ProbabilityEstimate est =
        traced ? runner_.estimate_probability(trial_seed, trials_, timed_trial)
               : runner_.estimate_probability(trial_seed, trials_, trial);
    if (traced) {
      r.spans.covered = ms_since(t0);
      r.spans.trial_busy = static_cast<double>(busy_ns.load()) * 1e-6;
    }
    r.work = static_cast<double>(est.trials);
    r.trials = est.trials;
    r.digest.add(est.successes);
    if (far) {
      r.tally.far = est.trials;
      r.tally.false_accepts = est.successes;
    } else {
      r.tally.uniform = est.trials;
      r.tally.false_rejects = est.successes;
    }
    if (est.trials != trials_) {
      r.ok = false;
      r.error = "op " + std::to_string(index) + " ran " +
                std::to_string(est.trials) + " trials";
    }
    return r;
  }

 private:
  static constexpr std::uint64_t kN = 1 << 16;
  static constexpr std::uint64_t kK = 4096;
  static constexpr double kEps = 0.9;

  std::uint64_t trials_;
  core::ThresholdPlan plan_;
  core::AliasSampler uniform_, far_;
  stats::TrialRunner runner_;
};

constexpr std::string_view kWorkloads[] = {"congest_grid",
                                           "congest_star_faults",
                                           "serve_zipf", "zero_round_mc"};

const char* work_unit(std::string_view workload) {
  if (workload == "serve_zipf") return "arrivals";
  if (workload == "zero_round_mc") return "network trials";
  return "CONGEST trials";
}

unsigned workload_workers(std::string_view workload) {
  return workload == "zero_round_mc" ? 2 : 1;
}

std::unique_ptr<Workload> make_workload(const Args& args, unsigned workers) {
  if (args.workload == "congest_grid") {
    return std::make_unique<CongestWorkload>(args, false);
  }
  if (args.workload == "congest_star_faults") {
    return std::make_unique<CongestWorkload>(args, true);
  }
  if (args.workload == "serve_zipf") {
    return std::make_unique<ServeWorkload>(args);
  }
  return std::make_unique<ZeroRoundWorkload>(args, workers);
}

// ------------------------------------------------------------------ passes

struct Pass {
  std::vector<double> setup_s;
  std::vector<OpResult> ops;  ///< timed ops, in order
  double elapsed_s = 0;       ///< wall time of the timed loop
  std::uint64_t failed = 0;  ///< timed ops that threw or failed a check
  std::uint64_t warmup_failures = 0;
  std::vector<std::string> errors;
  Digest digest;
  Tally tally;
  Counts counts;
  std::unique_ptr<Workload> workload;
};

double cpu_ms_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

OpResult guarded_op(Workload& w, std::uint64_t seed, std::uint64_t index,
                    bool traced) {
  const double c0 = cpu_ms_now();
  const auto t0 = Clock::now();
  OpResult r;
  try {
    r = w.run_op(seed, index, traced);
  } catch (const std::exception& e) {
    r = OpResult{};
    r.ok = false;
    r.error = "op " + std::to_string(index) + " threw: " + e.what();
  }
  r.ms = ms_since(t0);
  r.cpu_ms = cpu_ms_now() - c0;
  return r;
}

void note_error(Pass& p, const std::string& error) {
  if (p.errors.size() < 8) p.errors.push_back(error);
}

/// One pass: `setups` fresh set-ups (each including its warm-up ops; the
/// last one is kept), then timed ops until `seconds` have elapsed or, when
/// `op_count` is given, exactly that many ops. A stateless workload's ops
/// cycle through its `inputs`; a repeat must reproduce the first run's
/// digest and counts, and only first runs enter the plan-bound tallies.
Pass run_pass(const Args& args, bool traced, int setups, double seconds,
              std::optional<std::uint64_t> op_count, unsigned workers,
              EngineSpanSink* sink) {
  Pass p;
  for (int s = 0; s < setups; ++s) {
    p.workload.reset();
    p.digest = Digest{};
    const auto t0 = Clock::now();
    p.workload = make_workload(args, workers);
    if (sink != nullptr) p.workload->attach(sink);
    for (std::uint64_t i = 0; i < p.workload->warmup_ops; ++i) {
      const OpResult r = guarded_op(*p.workload, kWarmupSeed, i, traced);
      if (!r.ok) {
        ++p.warmup_failures;
        note_error(p, "warm-up " + r.error);
      }
      p.digest.add(r.digest.h);
    }
    p.setup_s.push_back(ms_since(t0) * 1e-3);
  }
  Workload& w = *p.workload;
  if (sink != nullptr) (void)sink->take();
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (op_count.has_value()) {
      if (k >= *op_count) break;
    } else if (ms_since(t0) >= seconds * 1e3) {
      break;
    }
    const bool repeat = w.inputs > 0 && k >= w.inputs;
    const std::uint64_t index =
        w.warmup_ops + (w.inputs > 0 ? k % w.inputs : k);
    OpResult r = guarded_op(w, args.seed, index, traced);
    p.digest.add(r.digest.h);
    if (r.ok && repeat) {
      const OpResult& first = p.ops[k % w.inputs];
      if (first.ok &&
          (r.digest.h != first.digest.h || !(r.counts == first.counts))) {
        r.ok = false;
        r.error = "op " + std::to_string(index) +
                  " repeated with another digest or counts";
      }
    }
    if (r.ok) {
      if (!repeat) p.tally.add(r.tally);
      p.counts.add(r.counts);
    } else {
      ++p.failed;
      note_error(p, r.error);
    }
    p.ops.push_back(std::move(r));
  }
  p.elapsed_s = ms_since(t0) * 1e-3;
  p.tally.add(w.pass_tally());
  return p;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Times of the ops that succeeded (a failed op contributes no time).
std::vector<double> ok_times(const Pass& p) {
  std::vector<double> t;
  for (const OpResult& r : p.ops) {
    if (r.ok) t.push_back(r.ms);
  }
  return t;
}

/// The fastest ok op of each slot (see kSlots), and the work it did.
/// On a shared host, co-tenants can slow a vCPU by up to 2x for seconds at
/// a time; an op's fastest run is its time on an undisturbed core.
struct Slots {
  std::vector<double> best_ms;
  double work = 0;     ///< work of the slots' fastest ops
  double best_sum_ms = 0;
  std::uint64_t min_runs = 0, max_runs = 0;  ///< ok ops per filled slot
};
Slots slots_of(const Pass& p) {
  std::vector<double> best(kSlots, -1), work(kSlots, 0);
  std::vector<std::uint64_t> runs(kSlots, 0);
  for (std::size_t k = 0; k < p.ops.size(); ++k) {
    const OpResult& r = p.ops[k];
    if (!r.ok) continue;
    const std::size_t j = k % kSlots;
    ++runs[j];
    if (best[j] < 0 || r.ms < best[j]) {
      best[j] = r.ms;
      work[j] = r.work;
    }
  }
  Slots s;
  for (std::size_t j = 0; j < kSlots; ++j) {
    if (runs[j] == 0) continue;
    s.best_ms.push_back(best[j]);
    s.work += work[j];
    s.best_sum_ms += best[j];
    s.min_runs = s.min_runs == 0 ? runs[j] : std::min(s.min_runs, runs[j]);
    s.max_runs = std::max(s.max_runs, runs[j]);
  }
  return s;
}

/// The highest percentile with at least ten ops beyond it: the 11th
/// largest op time. Returns (value, percentile, ops beyond).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::uint64_t beyond = 0;
};
Tail tail_of(std::vector<double> t) {
  Tail tail;
  if (t.empty()) return tail;
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size();
  tail.beyond = n > 10 ? 10 : 0;
  const std::size_t idx = n - 1 - tail.beyond;
  tail.value = t[idx];
  tail.percentile = 100.0 * static_cast<double>(n - tail.beyond) /
                    static_cast<double>(n);
  return tail;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Does the observed error count refute `bound` at kWilsonZ?
bool refutes(std::uint64_t errors, std::uint64_t trials, double bound) {
  if (trials == 0) return false;
  return stats::wilson_interval(errors, trials, kWilsonZ).lo > bound;
}

// ------------------------------------------------------------------ probes

/// ns per sample of AliasSampler::sample_into at (n, s): median of 5 batches.
double probe_sample_ns(std::uint64_t n, std::uint64_t s) {
  const core::AliasSampler sampler(core::uniform(n));
  stats::Xoshiro256 rng = stats::derive_stream(7, 1);
  std::vector<std::uint64_t> buf;
  const std::uint64_t calls = std::max<std::uint64_t>(1, 2'000'000 / s);
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t c = 0; c < calls; ++c) {
      sampler.sample_into(rng, s, buf);
      sink += buf[0];
    }
    batches.push_back(ms_since(t0) * 1e6 / static_cast<double>(calls * s));
  }
  if (sink == 1) std::fputs("", stderr);  // keeps the loop observable
  return median(batches);
}

/// ns per core::has_collision(samples, n) call at s: median of 5 batches.
double probe_collision_ns(std::uint64_t n, std::uint64_t s) {
  const core::AliasSampler sampler(core::uniform(n));
  stats::Xoshiro256 rng = stats::derive_stream(7, 2);
  constexpr std::uint64_t kSets = 256;
  std::vector<std::vector<std::uint64_t>> sets(kSets);
  for (auto& set : sets) sampler.sample_into(rng, s, set);
  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, 4'000'000 / (s * kSets));
  std::vector<double> batches;
  std::uint64_t hits = 0;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const auto& set : sets) hits += core::has_collision(set, n);
    }
    batches.push_back(ms_since(t0) * 1e6 /
                      static_cast<double>(rounds * kSets));
  }
  if (hits == 1) std::fputs("", stderr);
  return median(batches);
}

// ------------------------------------------------------------------ output

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metrics {
  std::string body;
  void add(const std::string& name, double value, const char* unit) {
    if (!body.empty()) body += ", ";
    body += quoted(name) + ": {\"value\": " + num(value) +
            ", \"unit\": " + quoted(unit) + "}";
  }
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string fingerprint(const Args& args) {
  return "{\"cpu_model\": " + quoted(cpu_model()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"flags\": " + quoted(PERFBENCH_FLAGS) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"git_describe\": " + quoted(args.git_describe) +
         ", \"workload\": " + quoted(args.workload) +
         ", \"workers\": " + std::to_string(workload_workers(args.workload)) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"tiny\": " + (args.tiny ? "true" : "false") + "}";
}

// -------------------------------------------------------------------- main

struct Checks {
  bool ok = true;
  std::string body;
  void add(const std::string& name, bool pass, const std::string& detail) {
    ok = ok && pass;
    if (!body.empty()) body += ", ";
    body += quoted(name) + ": {\"pass\": " + (pass ? "true" : "false") +
            ", \"detail\": " + quoted(detail) + "}";
  }
};

void check_bounds(const Pass& p, const std::string& tag, Checks& checks) {
  const Workload& w = *p.workload;
  const Tally& t = p.tally;
  if (w.check_uniform_side) {
    checks.add(tag + "false_reject", !refutes(t.false_rejects, t.uniform,
                                              w.bound_false_reject),
               std::to_string(t.false_rejects) + "/" +
                   std::to_string(t.uniform) + " vs bound " +
                   num(w.bound_false_reject));
  }
  checks.add(tag + "false_accept",
             !refutes(t.false_accepts, t.far, w.bound_false_accept),
             std::to_string(t.false_accepts) + "/" + std::to_string(t.far) +
                 " vs bound " + num(w.bound_false_accept));
  checks.add(tag + "ops_ok", p.failed == 0 && p.warmup_failures == 0,
             p.errors.empty() ? std::string("0 failed") : p.errors.front());
}

/// a / b, or 0 when there is nothing to divide by.
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double per_op(std::uint64_t total, std::size_t ops) {
  return ratio(static_cast<double>(total), static_cast<double>(ops));
}

void emit(const Checks& checks, const Args& args, std::uint64_t attempted,
          std::uint64_t failed, const Metrics& metrics,
          const std::string& details) {
  std::printf("{\"fingerprint\": %s, \"checks\": {%s}, \"details\": {%s}}\n",
              fingerprint(args).c_str(), checks.body.c_str(),
              details.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      checks.ok && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.body.c_str());
}

int run_untraced(const Args& args) {
  const unsigned workers = workload_workers(args.workload);
  Pass p = run_pass(args, false, kSetups, args.seconds, std::nullopt,
                    workers, nullptr);
  Checks checks;
  check_bounds(p, "", checks);
  const Slots slots = slots_of(p);
  const Tail tail = tail_of(slots.best_ms);
  double work = 0;
  for (const OpResult& r : p.ops) work += r.ok ? r.work : 0;
  Metrics m;
  m.add("setup_s", median(p.setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mib(), "MiB");
  m.add("throughput_per_s", ratio(slots.work, slots.best_sum_ms * 1e-3),
        "1/s");
  m.add("op_ms_p50", median(slots.best_ms), "ms");
  m.add("op_ms_tail", tail.value, "ms");
  std::string setups;
  for (const double s : p.setup_s) {
    setups += (setups.empty() ? "" : ", ") + num(s);
  }
  // Process CPU time per op: equal to the wall time (x workers) unless the
  // op waited or was descheduled.
  std::vector<double> cpu_times;
  for (const OpResult& r : p.ops) cpu_times.push_back(r.cpu_ms);
  const std::string details =
      "\"ops\": " + std::to_string(p.ops.size()) +
      ", \"slots\": " + std::to_string(slots.best_ms.size()) +
      ", \"runs_per_slot\": [" + std::to_string(slots.min_runs) + ", " +
      std::to_string(slots.max_runs) + "]" +
      ", \"throughput_unit\": " + quoted(work_unit(args.workload)) +
      ", \"tail_percentile\": " + num(tail.percentile) +
      ", \"tail_ops_beyond\": " + std::to_string(tail.beyond) +
      ", \"quorum_met_ops\": " + std::to_string(p.counts.quorum_met) +
      ", \"all_ops_ms_p50\": " + num(median(ok_times(p))) +
      ", \"all_ops_throughput_per_s\": " + num(ratio(work, p.elapsed_s)) +
      ", \"op_cpu_ms_p50\": " + num(median(cpu_times)) +
      ", \"setup_s_samples\": [" + setups + "]" +
      ", \"digest\": " + quoted(std::to_string(p.digest.h));
  emit(checks, args, p.ops.size(), p.failed, m, details);
  return 0;
}

int run_traced(const Args& args) {
  const unsigned workers = workload_workers(args.workload);
  // Untraced reference pass: the op count, the verdict digest and the
  // untraced op_ms_p50 that the trace overhead is measured against. It gets
  // half the time budget; the traced pass repeats its ops.
  Pass plain = run_pass(args, false, 1, args.seconds / 2, std::nullopt,
                        workers, nullptr);
  EngineSpanSink sink;
  Pass traced = run_pass(args, true, 1, 0, plain.ops.size(), workers, &sink);
  Workload& w = *traced.workload;

  Checks checks;
  check_bounds(plain, "untraced.", checks);
  check_bounds(traced, "traced.", checks);
  checks.add("digest_traced_eq_untraced", plain.digest.h == traced.digest.h,
             std::to_string(plain.digest.h) + " vs " +
                 std::to_string(traced.digest.h));
  checks.add("counts_traced_eq_untraced",
             plain.counts.same_untraced(traced.counts),
             "rounds/messages/faults/packages/verdicts/samples");

  // Network ops are stateless: re-running the first timed op must repeat
  // every count, wakes included.
  const bool network = w.graph() != nullptr;
  if (network && !traced.ops.empty()) {
    const OpResult again = guarded_op(w, args.seed, w.warmup_ops, true);
    const OpResult& first = traced.ops.front();
    checks.add("counts_repeat",
               again.ok && again.counts == first.counts &&
                   again.digest.h == first.digest.h,
               "op " + std::to_string(w.warmup_ops) + " re-run traced");
  }

  // Span coverage.
  double op_ms = 0, covered = 0, min_cov = 1;
  Spans sum;
  std::uint64_t arrivals = 0, queries = 0, trials = 0;
  std::vector<double> times, engine, outside, generate, ingest;
  for (const OpResult& r : traced.ops) {
    if (!r.ok) continue;
    times.push_back(r.ms);
    op_ms += r.ms;
    covered += r.spans.covered;
    min_cov = std::min(min_cov, r.ms > 0 ? r.spans.covered / r.ms : 1.0);
    sum.engine += r.spans.engine;
    sum.query += r.spans.query;
    sum.ingest += r.spans.ingest;
    sum.trial_busy += r.spans.trial_busy;
    arrivals += r.arrivals;
    queries += r.queries;
    trials += r.trials;
    engine.push_back(r.spans.engine);
    outside.push_back(r.spans.congest - r.spans.engine);
    generate.push_back(r.spans.generate);
    ingest.push_back(r.spans.ingest);
  }
  const double harness_frac = op_ms > 0 ? 1.0 - covered / op_ms : 0;
  checks.add("span_coverage", min_cov >= kMinCoverage,
             "min op coverage " + num(min_cov) + ", bench.harness_frac " +
                 num(harness_frac));

  const std::size_t n_ops = times.size();
  const Counts& c = traced.counts;
  Metrics m;
  // net
  m.add("net.engine_ms", network ? median(engine) : 0, "ms");
  m.add("net.engine_frac", ratio(sum.engine, op_ms), "ratio");
  m.add("net.rounds", per_op(c.rounds, n_ops), "count/op");
  m.add("net.wakes", per_op(c.wakes, n_ops), "count/op");
  m.add("net.messages", per_op(c.messages, n_ops), "count/op");
  m.add("net.faults", per_op(c.faults, n_ops), "count/op");
  m.add("net.msgs_per_wake", per_op(c.messages, c.wakes), "ratio");
  m.add("net.ns_per_wake", ratio(sum.engine * 1e6, c.wakes), "ns");
  double diameter_ms = 0;
  if (network) {
    const auto t0 = Clock::now();
    const std::uint32_t d = w.graph()->diameter();
    diameter_ms = ms_since(t0);
    if (d == 0) checks.add("diameter", false, "diameter 0");
  }
  m.add("net.diameter_ms", diameter_ms, "ms");
  // congest
  m.add("congest.plan_ms", w.plan_ms, "ms");
  m.add("congest.setup_ms", w.setup_ms, "ms");
  m.add("congest.outside_engine_ms", network ? median(outside) : 0, "ms");
  m.add("congest.packages", per_op(c.packages, n_ops), "count/op");
  // serve
  const bool serving = arrivals > 0;
  m.add("serve.generate_ms", serving ? median(generate) : 0, "ms");
  m.add("serve.ingest_ms", serving ? median(ingest) : 0, "ms");
  m.add("serve.ns_per_arrival", ratio(sum.ingest * 1e6, arrivals), "ns");
  m.add("serve.query_us", ratio(sum.query * 1e3, queries), "us");
  m.add("serve.verdicts", per_op(c.verdicts, n_ops), "count/op");
  m.add("serve.samples_per_verdict", per_op(c.samples, c.verdicts), "count");
  // core
  m.add("core.network_trial_us", ratio(sum.trial_busy * 1e3, trials), "us");
  m.add("core.sample_ns", probe_sample_ns(w.probe_n, w.probe_s), "ns");
  m.add("core.collision_ns", probe_collision_ns(w.probe_n, w.probe_s), "ns");
  // stats
  double speedup = 0;
  if (trials > 0) {
    // Same ops on one worker, against the untraced 2-worker times.
    Pass one = run_pass(args, false, 1, 0,
                        std::min<std::uint64_t>(kSpeedupOps, plain.ops.size()),
                        1, nullptr);
    std::vector<double> two;
    for (std::size_t i = 0; i < one.ops.size(); ++i) {
      two.push_back(plain.ops[i].ms);
    }
    bool same = one.failed == 0;
    for (std::size_t i = 0; i < one.ops.size(); ++i) {
      same = same && one.ops[i].digest.h == plain.ops[i].digest.h;
    }
    speedup = ratio(median(ok_times(one)), median(two));
    checks.add("one_worker_eq_two_workers", same,
               std::to_string(one.ops.size()) + " ops re-run on 1 worker");
  }
  m.add("stats.busy_frac", ratio(sum.trial_busy, w.workers * op_ms), "ratio");
  m.add("stats.speedup", speedup, "x");
  // obs / harness: both passes ran the same ops, so their slots match.
  const double plain_p50 = median(slots_of(plain).best_ms);
  m.add("obs.trace_overhead_frac",
        plain_p50 > 0 ? median(slots_of(traced).best_ms) / plain_p50 - 1.0
                      : 0,
        "ratio");
  m.add("bench.harness_frac", harness_frac, "ratio");

  const std::string details =
      "\"ops\": " + std::to_string(traced.ops.size()) +
      ", \"digest\": " + quoted(std::to_string(traced.digest.h)) +
      ", \"wakes\": " + std::to_string(c.wakes) +
      ", \"min_span_coverage\": " + num(min_cov);
  emit(checks, args, plain.ops.size() + traced.ops.size(),
       plain.failed + traced.failed, m, details);
  return 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::char_traits<char>::length(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc{} && res.ptr == end && end != s;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "dut_perfbench: %s\nusage: dut_perfbench --workload "
               "{congest_grid|congest_star_faults|serve_zipf|zero_round_mc} "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--git-describe STR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], args.seed)) return usage("bad --seed");
    } else if (a == "--seconds" && has_value) {
      if (!parse_u64(argv[++i], seconds) || seconds == 0 || seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (a == "--trace" && has_value) {
      if (!parse_u64(argv[++i], trace) || trace > 1) {
        return usage("bad --trace");
      }
    } else if (a == "--git-describe" && has_value) {
      args.git_describe = argv[++i];
    } else {
      return usage(("unknown argument " + std::string(a)).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.workload) == std::end(kWorkloads)) {
    return usage("unknown --workload");
  }
  args.seconds = static_cast<double>(seconds);
  args.trace = trace == 1;
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dut_perfbench: %s\n", e.what());
    return 1;
  }
}
