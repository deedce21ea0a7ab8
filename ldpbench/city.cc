// city_release and city_perturb: the Taxi-Foursquare-like city at the
// paper's defaults, released in batch at one worker (Table 3's job) and
// perturbed device-side at many workers.

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/collector_pipeline.h"
#include "core/mechanism.h"
#include "region/region_index.h"
#include "trace.h"
#include "workloads.h"
#include "worlds.h"

namespace ldpbench {

namespace {

using namespace trajldp;  // NOLINT: benchmark-local brevity
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What one setup produced: a built mechanism whose domain cache holds
/// every row the users need.
struct Setup {
  std::unique_ptr<core::NGramMechanism> mech;
  std::vector<region::RegionTrajectory> users;
  std::vector<double> setup_s;  // one entry per untraced repetition
  std::vector<double> fill_s;   // the warm-up's share of each
  double traced_setup_s = 0.0;  // the traced repetition (traced runs only)
};

/// Builds the mechanism kSetupRepeats times. Each repetition is timed from
/// NGramMechanism::Build until the warm-up pass over `trajectories` has
/// filled the domain's lazy rows; the last repetition is kept. When
/// `tracer` is on, the region layer's three public builds are timed first,
/// outside the setup clock, and one more repetition runs with its warm-up
/// in a span, so that the trace overhead on setup_s can be read.
StatusOr<Setup> BuildCity(const eval::Dataset& city,
                          const model::TrajectorySet& trajectories,
                          size_t warm_threads, uint64_t seed, Tracer& tracer,
                          Tracer::ThreadBuffer* tb) {
  const core::NGramConfig config = CityConfig(city);
  Setup out;
  if (tracer.enabled()) {
    TRAJLDP_RETURN_NOT_OK(TraceRegionBuilds(city.db, city.time, config, tb));
  }
  const int reps = kSetupRepeats + (tracer.enabled() ? 1 : 0);
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced = rep == kSetupRepeats;
    out.mech.reset();
    const auto t0 = Clock::now();
    auto mech = core::NGramMechanism::Build(&city.db, city.time, config);
    if (!mech.ok()) return mech.status();
    out.mech = std::make_unique<core::NGramMechanism>(std::move(*mech));
    // Region conversion is the device's step and not set-up work.
    const double build_s = Since(t0);
    auto users = ToRegions(out.mech->decomposition(), trajectories);
    if (!users.ok()) return users.status();
    out.users = std::move(*users);
    const auto t1 = Clock::now();
    {
      Tracer::Scope s(traced ? tb : nullptr, "core.domain_fill");
      core::BatchReleaseEngine::Config warm_config;
      warm_config.num_threads = warm_threads;
      core::BatchReleaseEngine warm(&out.mech->perturber(), warm_config);
      auto reports = warm.ReleaseAll(out.users, seed);
      if (!reports.ok()) return reports.status();
    }
    const double fill_s = Since(t1);
    if (traced) {
      out.traced_setup_s = build_s + fill_s;
    } else {
      out.fill_s.push_back(fill_s);
      out.setup_s.push_back(build_s + fill_s);
    }
  }
  return out;
}

void AddDomainMetrics(const core::NGramMechanism& mech, const Setup& setup,
                      RunResult& result) {
  const auto stats = mech.domain().cache_stats();
  const double hits = static_cast<double>(stats.weight_hits + stats.suffix_hits);
  const double misses =
      static_cast<double>(stats.weight_misses + stats.suffix_misses);
  result.Add("core.domain_fill_s", Median(setup.fill_s), "s");
  result.Add("core.domain_miss_ratio",
             hits + misses > 0 ? misses / (hits + misses) : 0.0, "ratio");
  result.Add("core.domain_rows",
             static_cast<double>(stats.weight_rows + stats.suffix_rows),
             "count");
  result.Add("region.edges", static_cast<double>(mech.graph().num_edges()),
             "count");
}

}  // namespace

// ----------------------------------------------------------- city_release

StatusOr<RunResult> RunCityRelease(const RunOptions& options) {
  // 100 users of each length 3..8 in the interleaved order; one round is
  // one ReleaseAllFull call over six consecutive users, one of each length.
  constexpr size_t kPerLength = 100;
  constexpr size_t kBatch = 6;
  constexpr size_t kSample = 12;  // users re-derived by the costly checks

  auto city = MakeCity();
  if (!city.ok()) return city.status();
  auto trajectories = CityTrajectories(*city, options.seed, kPerLength);
  if (!trajectories.ok()) return trajectories.status();

  Tracer tracer(options.trace);
  Tracer::ThreadBuffer* tb = tracer.Buffer();
  auto setup = BuildCity(*city, *trajectories, options.host_threads,
                         options.seed, tracer, tb);
  if (!setup.ok()) return setup.status();
  const core::NGramMechanism& mech = *setup->mech;
  const auto& users = setup->users;
  const size_t num_batches = users.size() / kBatch;

  struct Done {
    size_t user = 0;
    uint64_t seed = 0;   // the call's seed
    size_t index = 0;    // the user's index within its call
    core::FullRelease release;
  };
  std::vector<Done> done;
  RunResult result;
  uint64_t round = 0;

  // Untraced phase: one ReleaseAllFull call per round at one worker.
  core::BatchReleaseEngine::Config engine_config;
  engine_config.num_threads = 1;
  engine_config.poi_policy = core::PoiPolicy::kRejection;
  core::BatchReleaseEngine engine(&mech, engine_config);
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> latency_ms;
  double busy = 0.0, cpu = 0.0, released = 0.0;
  while (busy < untraced_budget) {
    const size_t first = (round % num_batches) * kBatch;
    const uint64_t round_seed = RoundSeed(options.seed, round++);
    const double c0 = ProcessUserCpuSeconds();
    const auto t0 = Clock::now();
    auto out = engine.ReleaseAllFull(
        std::span<const region::RegionTrajectory>(users.data() + first, kBatch),
        round_seed);
    const double dt = Since(t0);
    cpu += ProcessUserCpuSeconds() - c0;
    busy += dt;
    latency_ms.push_back(dt * 1e3);
    result.attempted += kBatch;
    if (!out.ok() || out->size() != kBatch) {
      result.failed += kBatch;
      result.notes.push_back("release failed: " + out.status().ToString());
      continue;
    }
    for (size_t i = 0; i < kBatch; ++i) {
      done.push_back({first + i, round_seed, i, std::move((*out)[i])});
    }
    released += kBatch;
  }
  const double users_per_cpu_s = released / cpu;
  const double peak_rss_untraced_mb = PeakRssMb();
  result.notes.push_back(
      "city_release wall clock: " + std::to_string(released / busy) +
      " users/s, per-call latency (" + std::to_string(kBatch) +
      " users) p50 " + std::to_string(Quantile(latency_ms, 0.50)) +
      " ms, p95 " + std::to_string(Quantile(latency_ms, 0.95)) + " ms over " +
      std::to_string(latency_ms.size()) + " calls");

  // Traced phase: the same calls, spelled out user by user and stage by
  // stage, with a fresh workspace per call as ReleaseAllFull builds.
  if (options.trace) {
    const core::CollectorPipeline pipe = mech.pipeline(core::PoiPolicy::kRejection);
    const core::PoiReconstructor poi(&mech.decomposition(), &mech.reachability(),
                                     mech.reachability_table(),
                                     mech.config().poi);
    size_t candidates = 0, attempts = 0, accepted = 0, traced = 0;
    double traced_busy = 0.0;
    const double traced_cpu0 = ProcessUserCpuSeconds();
    while (traced_busy < options.seconds / 2) {
      const size_t first = (round % num_batches) * kBatch;
      const uint64_t round_seed = RoundSeed(options.seed, round);
      const auto t0 = Clock::now();
      core::PipelineWorkspace ws;
      for (size_t i = 0; i < kBatch; ++i) {
        const size_t u = first + i;
        const uint64_t trace_id = round * kBatch + i;
        Done d{u, round_seed, i, {}};
        Status status;
        {
          Tracer::Scope root(tb, "bench.user", trace_id);
          Rng user_rng = core::CollectorPipeline::UserRng(round_seed, i);
          Rng collector_rng = core::CollectorPipeline::CollectorRng(user_rng);
          core::PerturbedNgramSet z;
          {
            Tracer::Scope s(tb, "core.perturb", trace_id);
            status = pipe.PerturbInto(users[u], user_rng, ws.sampler, z);
          }
          if (status.ok()) {
            Tracer::Scope s(tb, "core.reconstruct", trace_id);
            status = pipe.ReconstructRegionsInto(users[u].size(), z, ws,
                                                 d.release.regions);
          }
          candidates += ws.candidates.size();
          if (status.ok()) {
            Tracer::Scope s(tb, "core.poi", trace_id);
            auto r = poi.Reconstruct(d.release.regions, collector_rng, ws.poi,
                                     core::PoiPolicy::kRejection);
            status = r.status();
            if (r.ok()) {
              d.release.trajectory = std::move(r->trajectory);
              d.release.poi_attempts = r->attempts;
              d.release.smoothed = r->smoothed;
            }
          }
        }
        ++traced;
        ++result.attempted;
        if (!status.ok()) {
          ++result.failed;
          result.notes.push_back("traced release failed: " + status.ToString());
          continue;
        }
        attempts += d.release.poi_attempts;
        accepted += d.release.smoothed ? 0 : 1;
        done.push_back(std::move(d));
      }
      traced_busy += Since(t0);
      ++round;
    }
    const double traced_users_per_cpu_s =
        static_cast<double>(traced) / (ProcessUserCpuSeconds() - traced_cpu0);
    const double n = static_cast<double>(traced);
    result.Add("core.perturb_s", tracer.TotalSeconds("core.perturb") / n, "s");
    result.Add("core.reconstruct_s", tracer.TotalSeconds("core.reconstruct") / n,
               "s");
    result.Add("core.candidates_per_user", static_cast<double>(candidates) / n,
               "count");
    result.Add("core.poi_s", tracer.TotalSeconds("core.poi") / n, "s");
    result.Add("core.poi_attempts_per_user", static_cast<double>(attempts) / n,
               "count");
    result.Add("core.poi_accept_ratio",
               attempts > 0 ? static_cast<double>(accepted) / attempts : 0.0,
               "ratio");
    // The stage spans are leaves, so their durations are their self time.
    const double stages = tracer.TotalSeconds("core.perturb") +
                          tracer.TotalSeconds("core.reconstruct") +
                          tracer.TotalSeconds("core.poi");
    const double coverage = stages / traced_busy;
    result.notes.push_back(
        "trace coverage: layer self time " + std::to_string(stages) +
        " s of " + std::to_string(traced_busy) + " s traced wall time = " +
        std::to_string(coverage) +
        (coverage >= 0.9 ? " (>= 0.90)" : " (BELOW 0.90: the layers miss time)"));
    AddTraceSummary(tracer, result);
    AddDomainMetrics(mech, *setup, result);
    AddOverhead("setup_s", Median(setup->setup_s), setup->traced_setup_s,
                result);
    AddOverhead("users_per_user_cpu_s", users_per_cpu_s, traced_users_per_cpu_s,
                result);
    AddOverhead("peak_rss_mb", peak_rss_untraced_mb, PeakRssMb(), result);
  }

  // ---- checks (outside the timed sections)
  size_t smoothed = 0;
  for (const Done& d : done) {
    const size_t len = users[d.user].size();
    result.Reject("region walk",
                  CheckRegionWalk(mech.graph(), d.release.regions, len));
    if (d.release.smoothed) {
      ++smoothed;
      continue;
    }
    result.Reject("POI trajectory",
                  CheckPoiTrajectory(mech.decomposition(),
                                     mech.config().reachability,
                                     d.release.trajectory, d.release.regions));
  }
  const core::CollectorPipeline pipe = mech.pipeline(core::PoiPolicy::kRejection);
  const size_t stride = std::max<size_t>(1, done.size() / kSample);
  for (size_t i = 0; i < done.size(); i += stride) {
    const Done& d = done[i];
    const auto& tau = users[d.user];
    // Optimality: rebuild the user's reconstruction problem from the
    // re-derived device report and solve it with the benchmark's own DP.
    Rng user_rng = core::CollectorPipeline::UserRng(d.seed, d.index);
    core::SamplerWorkspace sampler;
    core::PerturbedNgramSet z;
    result.Reject("re-perturb", pipe.PerturbInto(tau, user_rng, sampler, z));
    std::vector<region::RegionId> observed;
    for (const auto& gram : z) {
      observed.insert(observed.end(), gram.regions.begin(), gram.regions.end());
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()), observed.end());
    auto candidates = region::MbrCandidateRegions(
        mech.decomposition(), observed, mech.config().mbr_expand_km);
    auto problem = core::ReconstructionProblem::Create(
        &mech.distance(), &mech.graph(), tau.size(), z, candidates);
    if (problem.ok() && std::isinf(OptimalObjective(*problem))) {
      // No feasible walk inside R_mbr: the documented fallback is all regions.
      std::vector<region::RegionId> all(mech.decomposition().num_regions());
      for (size_t r = 0; r < all.size(); ++r) all[r] = static_cast<region::RegionId>(r);
      problem = core::ReconstructionProblem::Create(&mech.distance(),
                                                    &mech.graph(), tau.size(), z,
                                                    std::move(all));
    }
    result.Reject("problem", problem.status());
    if (problem.ok()) {
      result.Reject("optimal reconstruction",
                    CheckOptimal(*problem, d.release.regions));
    }
    // RNG seam: the sequential path gives the same bits.
    Rng seq_rng = core::CollectorPipeline::UserRng(d.seed, d.index);
    auto sequential = mech.ReleaseFromRegions(tau, seq_rng);
    result.Reject("sequential re-release", sequential.status());
    if (sequential.ok() && !SameRelease(*sequential, d.release)) {
      result.Reject("sequential re-release",
                    Status::FailedPrecondition(
                        "ReleaseFromRegions differs from the batch release"));
    }
  }
  result.notes.push_back(
      "city_release: " + std::to_string(done.size()) + " users released, " +
      std::to_string(smoothed) + " smoothed (gamma = " +
      std::to_string(mech.config().poi.gamma) + " attempts exhausted), " +
      std::to_string(mech.decomposition().num_regions()) + " regions");

  if (!options.trace) {
    result.Add("setup_s", Median(setup->setup_s), "s");
    result.Add("users_per_user_cpu_s", users_per_cpu_s, "users/cpu-s");
    result.Add("peak_rss_mb", peak_rss_untraced_mb, "MiB");
  }
  TRAJLDP_RETURN_NOT_OK(WriteSpans(tracer, options));
  return result;
}

// ----------------------------------------------------------- city_perturb

StatusOr<RunResult> RunCityPerturb(const RunOptions& options) {
  constexpr size_t kPerLength = 300;
  // One round is one ReleaseAll call over this many users (50 of each
  // length); rounds walk the user pool in order, so every call carries the
  // same length mix and the pool's rows all stay in use.
  constexpr size_t kBatch = 300;
  // Draws per goodness-of-fit input, in chunks that bound the memory the
  // reports take. At L = 8 the EM is nearly flat; 80k draws are what it
  // takes for a histogram at 2ε′ to be rejected (see the negative control).
  constexpr size_t kGofChunk = 20000;
  constexpr size_t kGofChunks = 4;
  constexpr size_t kGofDraws = kGofChunk * kGofChunks;

  auto city = MakeCity();
  if (!city.ok()) return city.status();
  auto trajectories = CityTrajectories(*city, options.seed, kPerLength);
  if (!trajectories.ok()) return trajectories.status();

  const size_t threads = options.host_threads;
  Tracer tracer(options.trace);
  Tracer::ThreadBuffer* tb = tracer.Buffer();
  auto setup =
      BuildCity(*city, *trajectories, threads, options.seed, tracer, tb);
  if (!setup.ok()) return setup.status();
  const core::NGramMechanism& mech = *setup->mech;
  const auto& users = setup->users;
  const auto& perturber = mech.perturber();
  const int n = mech.config().n;
  const double epsilon = mech.config().epsilon;

  RunResult result;
  core::BatchReleaseEngine::Config engine_config;
  engine_config.num_threads = threads;
  core::BatchReleaseEngine engine(&perturber, engine_config);

  auto check_round = [&](size_t first, const std::vector<core::PerturbedNgramSet>& reports) {
    for (size_t i = 0; i < reports.size(); ++i) {
      const size_t len = users[first + i].size();
      result.Reject("report",
                    CheckReport(mech.graph(), reports[i], len, n,
                                perturber.EpsilonPerPerturbation(len), epsilon));
      if (!result.correct) return;
    }
  };

  uint64_t round = 0;
  const size_t num_batches = users.size() / kBatch;
  // Per call: wall time and the process's CPU time; every call carries the
  // same length mix, so the median over calls is a robust aggregate. The
  // call's utilisation, all CPU ÷ (wall × workers), shows time the workers
  // spent blocked or idle, which no CPU-time figure sees.
  std::vector<double> latency_ms, call_users_per_cpu_s, utilisation;
  double busy = 0.0;
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  while (busy < untraced_budget) {
    const size_t first = (round % num_batches) * kBatch;
    const uint64_t round_seed = RoundSeed(options.seed, round++);
    const CpuUse c0 = ProcessCpu();
    const auto t0 = Clock::now();
    auto reports = engine.ReleaseAll(
        std::span<const region::RegionTrajectory>(users.data() + first, kBatch),
        round_seed);
    const double dt = Since(t0);
    const CpuUse c1 = ProcessCpu();
    call_users_per_cpu_s.push_back(kBatch / (c1.user_s - c0.user_s));
    utilisation.push_back((c1.user_s + c1.system_s - c0.user_s - c0.system_s) /
                          (dt * static_cast<double>(threads)));
    busy += dt;
    latency_ms.push_back(dt * 1e3);
    result.attempted += kBatch;
    if (!reports.ok()) {
      result.failed += kBatch;
      result.notes.push_back("perturb failed: " + reports.status().ToString());
      continue;
    }
    if (result.correct) check_round(first, *reports);
  }
  const double users_per_cpu_s = Median(call_users_per_cpu_s);
  const double peak_rss_untraced_mb = PeakRssMb();
  const double users_per_s =
      static_cast<double>(latency_ms.size() * kBatch) / busy;
  result.notes.push_back(
      "city_perturb wall clock: " + std::to_string(users_per_s) +
      " users/s, per-call latency (" + std::to_string(kBatch) +
      " users) p50 " + std::to_string(Quantile(latency_ms, 0.50)) +
      " ms, p95 " + std::to_string(Quantile(latency_ms, 0.95)) + " ms over " +
      std::to_string(latency_ms.size()) + " calls, worker utilisation p50 " +
      std::to_string(Median(utilisation)));

  if (options.trace) {
    // The same fan-out by hand, one span per user's PerturbInto.
    const core::CollectorPipeline pipe = mech.pipeline();
    ThreadPool pool(threads);
    std::vector<Tracer::ThreadBuffer*> buffers(threads);
    for (auto& b : buffers) b = tracer.Buffer();
    std::vector<core::SamplerWorkspace> workspaces(threads);
    std::vector<core::PerturbedNgramSet> reports(kBatch);
    std::vector<Status> statuses(kBatch);
    double traced_busy = 0.0;
    size_t traced_users = 0;
    std::vector<double> traced_users_per_cpu_s;
    while (traced_busy < options.seconds / 2) {
      const size_t first = (round % num_batches) * kBatch;
      const uint64_t round_seed = RoundSeed(options.seed, round++);
      const Rng root(round_seed);
      const double c0 = ProcessUserCpuSeconds();
      const auto t0 = Clock::now();
      pool.ParallelFor(kBatch, [&](size_t i, size_t worker) {
        Rng user_rng = root.Substream(i);
        Tracer::Scope s(buffers[worker], "core.perturb", first + i);
        statuses[i] = pipe.PerturbInto(users[first + i], user_rng,
                                       workspaces[worker], reports[i]);
      });
      traced_busy += Since(t0);
      traced_users_per_cpu_s.push_back(kBatch / (ProcessUserCpuSeconds() - c0));
      traced_users += kBatch;
      result.attempted += kBatch;
      for (const Status& st : statuses) {
        if (!st.ok()) ++result.failed;
      }
      if (result.correct) check_round(first, reports);
    }
    result.Add("core.perturb_s",
               tracer.TotalSeconds("core.perturb") / traced_users, "s");
    result.Add("core.perturb_utilisation", Median(utilisation), "ratio");
    AddTraceSummary(tracer, result);
    AddDomainMetrics(mech, *setup, result);
    AddOverhead("setup_s", Median(setup->setup_s), setup->traced_setup_s,
                result);
    AddOverhead("users_per_user_cpu_s", users_per_cpu_s,
                Median(traced_users_per_cpu_s), result);
    AddOverhead("peak_rss_mb", peak_rss_untraced_mb, PeakRssMb(), result);
  }

  const auto stats = mech.domain().cache_stats();
  result.notes.push_back("city_perturb: " + std::to_string(threads) +
                         " workers, " + std::to_string(stats.weight_rows) +
                         " weight rows + " + std::to_string(stats.suffix_rows) +
                         " suffix rows cached");

  // Goodness of fit on fixed inputs under a fixed seed: the unigram prefix
  // draw and the first bigram's first slot, against exponential-mechanism
  // probabilities computed here from the public distances.
  const size_t num_regions = mech.decomposition().num_regions();
  const double diameter = mech.distance().MaxDistance();
  for (size_t len : {size_t{3}, size_t{8}}) {
    region::RegionTrajectory tau(len);
    for (size_t i = 0; i < len; ++i) {
      tau[i] = static_cast<region::RegionId>((97 + 389 * i * len) % num_regions);
    }
    const std::vector<region::RegionTrajectory> copies(kGofChunk, tau);
    std::vector<uint64_t> unigram(num_regions, 0), bigram(num_regions, 0);
    for (size_t chunk = 0; chunk < kGofChunks; ++chunk) {
      auto reports = engine.ReleaseAll(copies, 0x600D5EED + 64 * len + chunk);
      result.Reject("goodness-of-fit draws", reports.status());
      if (!reports.ok()) break;
      for (const auto& report : *reports) {
        for (const auto& gram : report) {
          if (gram.a == 1 && gram.b == 1) ++unigram[gram.regions[0]];
          if (gram.a == 1 && gram.b == 2) ++bigram[gram.regions[0]];
        }
      }
    }
    const double eps_prime = perturber.EpsilonPerPerturbation(len);
    const std::string tag = " (L = " + std::to_string(len) + ")";
    result.Reject("unigram EM" + tag,
                  CheckFrequencies(unigram,
                                   UnigramEm(mech.distance(), tau[0], eps_prime,
                                             diameter),
                                   "unigram prefix" + tag));
    // Negative control: a histogram drawn here at 2ε′ must not pass, or the
    // test has no power on this world.
    const auto at_double = UnigramEm(mech.distance(), tau[0], 2 * eps_prime, diameter);
    Rng control_rng(len);
    std::vector<uint64_t> control(num_regions, 0);
    for (size_t i = 0; i < kGofDraws; ++i) ++control[control_rng.Discrete(at_double)];
    const GofResult power = ChiSquareGof(
        control, UnigramEm(mech.distance(), tau[0], eps_prime, diameter), 20);
    result.notes.push_back("goodness of fit" + tag + ": draws at 2x epsilon give p = " +
                           std::to_string(power.p_value) +
                           (power.p_value < 1e-4 ? " (rejected)" : " (NOT rejected: no power)"));
    result.Reject("bigram EM" + tag,
                  CheckFrequencies(bigram,
                                   BigramFirstSlotEm(mech.distance(), mech.graph(),
                                                     tau[0], tau[1], eps_prime,
                                                     diameter),
                                   "bigram first slot" + tag));
  }

  if (!options.trace) {
    result.Add("setup_s", Median(setup->setup_s), "s");
    result.Add("users_per_user_cpu_s", users_per_cpu_s, "users/cpu-s");
    result.Add("peak_rss_mb", peak_rss_untraced_mb, "MiB");
  }
  TRAJLDP_RETURN_NOT_OK(WriteSpans(tracer, options));
  return result;
}

}  // namespace ldpbench
