// device_ingest: durable uploads from devices. Each upload is one device's
// single report on a fresh sequenced ReportClient against a journaled
// IngestServer (per-record fsync) feeding a deduplicating
// StreamingCollector whose sink folds StreamAnalytics. One fixed-rate
// (open-loop) phase, then one saturation (closed-loop) phase in rounds of
// a fixed upload count; an operator scrape of the registry runs once a
// second alongside.

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analytics/stream_analytics.h"
#include "checks.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "net/ingest_server.h"
#include "net/report_client.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "trace.h"
#include "workloads.h"
#include "worlds.h"

namespace ldpbench {

namespace {

using namespace trajldp;  // NOLINT: benchmark-local brevity
using Clock = std::chrono::steady_clock;

// Uploads in the fixed-rate phase, and their offered rate. 2000 uploads
// leave 20 samples beyond p99; the rate sits well below the saturation
// throughput measured on a 4-vCPU host (see README.md).
constexpr size_t kFixedUploads = 2000;
constexpr double kFixedRate = 500.0;  // uploads per second
// Users in the pool; the saturation phase ends early if it runs out.
constexpr size_t kPoolUsers = 100000;
// Threads: upload generators, reactor threads and collector workers. With
// one of each per core the process ran 12 busy threads on a 4-vCPU host,
// and its CPU cost per upload swung with co-tenant load; two generators
// keep one upload in flight while the other is fsynced and acked.
constexpr size_t kGenerators = 2;
constexpr size_t kReactors = 1;
constexpr size_t kCollectorWorkers = 1;
// Uploads per saturation round.
constexpr size_t kRoundUploads = 250;
// Set-up (mechanism build, collector and server start, journal open) takes
// about 10 ms on a 4-vCPU host, so a run repeats it more often than the
// city's.
constexpr int kIngestSetupRepeats = 9;
constexpr size_t kTrajectoryLen = 5;
constexpr int kHotspotBinMinutes = 60;
constexpr int kHotspotEta = 4;
constexpr int kTopKWindowMinutes = 60;
constexpr size_t kTopK = 10;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sums every series of `name` (all label sets): counter/gauge values, or
/// histogram sums and counts.
struct Series {
  double value = 0.0;
  double sum = 0.0;
  double count = 0.0;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
};
Series Find(const obs::RegistrySnapshot& snap, const std::string& name) {
  Series out;
  for (const auto& m : snap.metrics) {
    if (m.name != name) continue;
    out.value += m.value;
    out.sum += m.sum;
    out.count += static_cast<double>(m.count);
  }
  return out;
}

/// One set-up: mechanism, device reports, and the running server stack.
/// Members are declared in construction order, so the server is torn down
/// before the collector and the collector before what its sink touches.
/// The run's inputs: the pool's trajectories and the devices' reports.
struct Devices {
  std::vector<region::RegionTrajectory> users;
  io::ReportBatch reports;
  core::CacheStats domain;  // after perturbing them
};

/// Makes the inputs with a mechanism of the devices' own, at one thread so
/// that the allocation pattern, and with it the process's peak footprint,
/// is the same on every run. The server side never perturbs, so this is
/// input generation and not set-up work.
StatusOr<Devices> MakeDevices(const model::PoiDatabase& db,
                              const model::TimeDomain& time, uint64_t seed) {
  auto mech = core::NGramMechanism::Build(&db, time, LatticeConfig());
  if (!mech.ok()) return mech.status();
  Devices out;
  out.users = LatticeUsers(mech->decomposition().num_regions(), seed,
                           kPoolUsers, kTrajectoryLen);
  core::BatchReleaseEngine::Config config;
  config.num_threads = 1;
  core::BatchReleaseEngine devices(&mech->perturber(), config);
  auto perturbed = devices.ReleaseAll(out.users, seed);
  if (!perturbed.ok()) return perturbed.status();
  out.reports =
      core::MakeWireReports(out.users, std::move(*perturbed), mech->perturber());
  out.domain = mech->domain().cache_stats();
  return out;
}

struct Rig {
  const Devices* devices = nullptr;
  std::unique_ptr<core::NGramMechanism> mech;
  // Written by the sink (the collector serializes sink calls). Sized for
  // the whole pool up front, so the footprint does not follow the number
  // of uploads a run manages.
  std::unique_ptr<std::atomic<int64_t>[]> release_ns;
  std::unique_ptr<uint64_t[]> digests;       // ReleaseDigest by user id
  std::unique_ptr<uint64_t[]> released_ids;  // in release order
  size_t num_released = 0;
  std::optional<analytics::StreamAnalytics> analytics;
  /// Set before the traced phase; read by the sink on collector workers.
  std::atomic<Tracer::ThreadBuffer*> sink_trace{nullptr};
  std::unique_ptr<core::StreamingCollector> collector;
  std::unique_ptr<net::IngestServer> server;

  Status Stop() {
    if (server) server->Shutdown();
    Status status = server ? server->first_connection_error() : Status::Ok();
    if (collector) {
      const Status finished = collector->Finish();
      if (status.ok()) status = finished;
    }
    return status;
  }
};

/// Builds the server-side mechanism and starts the server stack. `tb`
/// (traced runs only) gets a span around the mechanism build.
StatusOr<std::unique_ptr<Rig>> SetUp(const model::PoiDatabase& db,
                                     const model::TimeDomain& time,
                                     const Devices& devices,
                                     const RunOptions& options,
                                     const std::string& journal_path,
                                     Tracer::ThreadBuffer* tb) {
  auto rig = std::make_unique<Rig>();
  rig->devices = &devices;
  {
    Tracer::Scope s(tb, "core.mechanism_build");
    auto mech = core::NGramMechanism::Build(&db, time, LatticeConfig());
    if (!mech.ok()) return mech.status();
    rig->mech = std::make_unique<core::NGramMechanism>(std::move(*mech));
  }

  rig->release_ns = std::make_unique<std::atomic<int64_t>[]>(kPoolUsers);
  rig->digests = std::make_unique<uint64_t[]>(kPoolUsers);
  rig->released_ids = std::make_unique<uint64_t[]>(kPoolUsers);
  analytics::StreamAnalyticsConfig analytics_config;
  analytics_config.hotspots.emplace();
  analytics_config.hotspots->entity = eval::HotspotSpec::Entity::kPoi;
  analytics_config.hotspots->bin_minutes = kHotspotBinMinutes;
  analytics_config.hotspots->eta = kHotspotEta;
  analytics_config.top_k.emplace();
  analytics_config.top_k->window_minutes = kTopKWindowMinutes;
  analytics_config.top_k->k = kTopK;
  auto bundle = analytics::StreamAnalytics::Create(&db, time, analytics_config);
  if (!bundle.ok()) return bundle.status();
  rig->analytics.emplace(std::move(*bundle));

  core::StreamingCollector::Config collector_config;
  collector_config.num_threads = kCollectorWorkers;
  collector_config.dedup_user_ids = true;
  Rig* r = rig.get();
  rig->collector = std::make_unique<core::StreamingCollector>(
      r->mech.get(), options.seed,
      [r](core::UserRelease release) {
        const uint64_t id = release.user_id;
        if (id < kPoolUsers) {
          r->release_ns[id].store(Tracer::NowNs(), std::memory_order_release);
        }
        {
          Tracer::Scope s(r->sink_trace.load(), "analytics.consume", id);
          r->analytics->Consume(release);
        }
        if (id < kPoolUsers && r->num_released < kPoolUsers) {
          r->digests[id] = ReleaseDigest(release.release);
          r->released_ids[r->num_released++] = id;
        }
      },
      collector_config);

  std::filesystem::remove(journal_path);
  net::IngestServer::Options server_options;
  server_options.journal_path = journal_path;
  server_options.reactor_threads = kReactors;
  server_options.journal_options.sync = io::FrameJournal::SyncPolicy::kEveryRecord;
  auto server = net::IngestServer::Start(rig->collector.get(), server_options);
  if (!server.ok()) return server.status();
  rig->server = std::move(*server);
  return rig;
}

struct Upload {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t ack_ns = 0;
  bool ok = false;
};

/// Client-side counters summed over every upload of the run.
struct ClientTotals {
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> resent{0};
  std::atomic<uint64_t> reconnects{0};
};

void DoUpload(Rig& rig, uint64_t id, Tracer::ThreadBuffer* tb,
              ClientTotals& totals, Upload& up) {
  net::ReportClient::Options client_options;
  client_options.enable_sequencing = true;
  client_options.stream_id = id + 1;
  client_options.backoff_seed = id;
  net::ReportClient client("127.0.0.1", rig.server->port(), client_options);
  up.start_ns = Tracer::NowNs();
  Status status;
  {
    Tracer::Scope s(tb, "net.upload", id);
    status = client.SendBatch(
        std::span<const io::WireReport>(&rig.devices->reports[id], 1));
    if (status.ok()) status = client.Flush();
  }
  up.ack_ns = Tracer::NowNs();
  client.Close();
  totals.resent += client.frames_resent();
  totals.reconnects += client.reconnects();
  if (!status.ok()) ++totals.failed;
  up.ok = status.ok();
}

/// Waits until the collector has released `count` reports in total.
Status AwaitReleased(const Rig& rig, size_t count) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (rig.collector->reports_released() < count) {
    if (Clock::now() > deadline) {
      return Status::Internal("releases stalled at " +
                              std::to_string(rig.collector->reports_released()) +
                              " of " + std::to_string(count));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::Ok();
}

/// One pass of both phases over pool ids starting at `*next_id`.
struct PhaseResult {
  std::vector<double> ack_ms, release_ms, late_ms;
  double ingest_users_per_s = 0.0;
  // Saturation phase: uploads per user-mode CPU second, kernel CPU
  // milliseconds and context switches per upload.
  double users_per_cpu_s = 0.0;
  double system_ms_per_upload = 0.0;
  double switches_per_upload = 0.0;
  size_t uploads = 0;
};

StatusOr<PhaseResult> RunPhases(Rig& rig, double seconds, Tracer& tracer,
                                ClientTotals& totals, size_t* next_id,
                                std::vector<std::string>& notes) {
  PhaseResult out;
  std::vector<Tracer::ThreadBuffer*> buffers(kGenerators);
  for (auto& b : buffers) b = tracer.Buffer();

  // Fixed rate, open loop: upload k is due at t0 + k / rate; generator g
  // sends uploads g, g + G, ... each at its due time or as soon after as
  // it can, and latencies count from the due time.
  const size_t first = *next_id;
  std::vector<Upload> fixed(kFixedUploads);
  const int64_t t0 = Tracer::NowNs() + 20'000'000;
  for (size_t k = 0; k < kFixedUploads; ++k) {
    fixed[k].due_ns = t0 + static_cast<int64_t>(1e9 * k / kFixedRate);
  }
  {
    std::vector<std::thread> gens;
    for (size_t g = 0; g < kGenerators; ++g) {
      gens.emplace_back([&, g] {
        for (size_t k = g; k < kFixedUploads; k += kGenerators) {
          const int64_t wait = fixed[k].due_ns - Tracer::NowNs();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          DoUpload(rig, first + k, buffers[g], totals, fixed[k]);
        }
      });
    }
    for (auto& t : gens) t.join();
  }
  *next_id += kFixedUploads;
  out.uploads += kFixedUploads;
  TRAJLDP_RETURN_NOT_OK(AwaitReleased(rig, *next_id - totals.failed.load()));
  for (size_t k = 0; k < kFixedUploads; ++k) {
    const Upload& up = fixed[k];
    out.late_ms.push_back((up.start_ns - up.due_ns) * 1e-6);
    if (!up.ok) continue;
    out.ack_ms.push_back((up.ack_ns - up.due_ns) * 1e-6);
    const int64_t released =
        rig.release_ns[first + k].load(std::memory_order_acquire);
    out.release_ms.push_back((released - up.due_ns) * 1e-6);
  }

  // Saturation, closed loop, in rounds of kRoundUploads: the generators
  // upload back to back until the round's ids are spent, and the round
  // ends when the collector has released every one of them. Rounds start
  // until the phase's share of the run is spent (or the pool runs out).
  // The generator threads live for the whole phase, so the allocator's
  // per-thread arenas, and with them the footprint, do not follow the
  // number of rounds. CPU use is taken over the whole phase: the kernel
  // splits it into user and system time by tick samples, which only a
  // long window makes exact.
  const double budget =
      std::max(1.0, seconds - kFixedUploads / kFixedRate);
  const size_t sat_first = *next_id;
  double sat_wall = 0.0;
  std::barrier sync(static_cast<std::ptrdiff_t>(kGenerators + 1));
  std::atomic<size_t> cursor{0}, round_end{0};
  std::atomic<bool> finished{false};
  std::vector<std::thread> gens;
  for (size_t g = 0; g < kGenerators; ++g) {
    gens.emplace_back([&, g] {
      Upload up;
      while (true) {
        sync.arrive_and_wait();  // round start
        if (finished.load()) return;
        for (size_t id = cursor.fetch_add(1); id < round_end.load();
             id = cursor.fetch_add(1)) {
          DoUpload(rig, id, buffers[g], totals, up);
        }
        sync.arrive_and_wait();  // round end
      }
    });
  }
  Status status;
  const CpuUse c0 = ProcessCpu();
  while (status.ok() && sat_wall < budget &&
         *next_id + kRoundUploads <= kPoolUsers) {
    cursor = *next_id;
    round_end = *next_id + kRoundUploads;
    const auto r0 = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    *next_id += kRoundUploads;
    status = AwaitReleased(rig, *next_id - totals.failed.load());
    sat_wall += Since(r0);
  }
  const CpuUse c1 = ProcessCpu();
  finished = true;
  sync.arrive_and_wait();
  for (auto& t : gens) t.join();
  TRAJLDP_RETURN_NOT_OK(status);
  if (*next_id + kRoundUploads > kPoolUsers) {
    notes.push_back("device_ingest: the saturation phase used the whole pool");
  }
  const double n = static_cast<double>(*next_id - sat_first);
  out.uploads += *next_id - sat_first;
  out.ingest_users_per_s = n / sat_wall;
  out.users_per_cpu_s = n / (c1.user_s - c0.user_s);
  out.system_ms_per_upload = 1e3 * (c1.system_s - c0.system_s) / n;
  out.switches_per_upload = (c1.switches - c0.switches) / n;
  return out;
}

/// The operator's scrape: registry snapshot plus Prometheus rendering, once
/// a second until stopped.
class Scraper {
 public:
  Scraper(obs::Registry* registry, Tracer::ThreadBuffer* tb)
      : registry_(registry), tb_(tb), thread_([this] { Loop(); }) {}
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  size_t scrapes() const { return scrapes_; }
  double seconds() const { return seconds_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; })) {
      lock.unlock();
      const auto t0 = Clock::now();
      {
        Tracer::Scope s(tb_, "obs.scrape");
        obs::RenderPrometheus(registry_->Snapshot());
      }
      seconds_ += Since(t0);
      ++scrapes_;
      lock.lock();
    }
  }

  obs::Registry* registry_;
  Tracer::ThreadBuffer* tb_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  size_t scrapes_ = 0;
  double seconds_ = 0.0;
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace

StatusOr<RunResult> RunDeviceIngest(const RunOptions& options) {
  auto db = MakeLatticeDb();
  if (!db.ok()) return db.status();
  auto time = model::TimeDomain::Create(10);
  if (!time.ok()) return time.status();
  const std::string journal_path =
      (options.out_dir.empty() ? std::string(".") : options.out_dir) +
      "/ingest-" + std::to_string(::getpid()) + ".journal";
  Tracer tracer(options.trace);
  Tracer::ThreadBuffer* tb = tracer.Buffer();
  if (tracer.enabled()) {
    TRAJLDP_RETURN_NOT_OK(TraceRegionBuilds(*db, *time, LatticeConfig(), tb));
  }

  auto devices = MakeDevices(*db, *time, options.seed);
  if (!devices.ok()) return devices.status();

  // Set-up repetitions; a traced run adds one with the build in a span.
  std::vector<double> setup_s;
  double traced_setup_s = 0.0;
  std::unique_ptr<Rig> rig;
  const int reps = kIngestSetupRepeats + (tracer.enabled() ? 1 : 0);
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced_rep = rep == kIngestSetupRepeats;
    if (rig) {
      TRAJLDP_RETURN_NOT_OK(rig->Stop());
      rig.reset();
    }
    const auto t0 = Clock::now();
    auto built = SetUp(*db, *time, *devices, options, journal_path,
                       traced_rep ? tb : nullptr);
    if (!built.ok()) return built.status();
    if (traced_rep) {
      traced_setup_s = Since(t0);
    } else {
      setup_s.push_back(Since(t0));
    }
    rig = std::move(*built);
  }

  RunResult result;
  ClientTotals totals;
  size_t next_id = 0;
  obs::Registry* registry = rig->server->metrics();
  std::optional<Scraper> scraper;
  scraper.emplace(registry, tracer.Buffer());

  Tracer untraced(false);
  auto phases = RunPhases(*rig, options.trace ? options.seconds / 2 : options.seconds,
                          untraced, totals, &next_id, result.notes);
  if (!phases.ok()) return phases.status();
  const double peak_rss_untraced_mb = PeakRssMb();
  std::optional<PhaseResult> traced;
  if (options.trace) {
    rig->sink_trace = tracer.Buffer();
    auto again = RunPhases(*rig, options.seconds / 2, tracer, totals, &next_id,
                           result.notes);
    if (!again.ok()) return again.status();
    traced = std::move(*again);
  }
  scraper->Stop();
  const obs::RegistrySnapshot snap = registry->Snapshot();
  const size_t scrapes = scraper->scrapes();
  const double scrape_s = scraper->seconds();
  scraper.reset();
  result.attempted = phases->uploads + (traced ? traced->uploads : 0);
  result.failed = totals.failed.load();
  TRAJLDP_RETURN_NOT_OK(rig->Stop());
  const double peak_rss_traced_mb = PeakRssMb();

  auto describe = [&](const char* label, const PhaseResult& p) {
    result.notes.push_back(
        std::string("device_ingest ") + label + ": " +
        std::to_string(kFixedUploads) + " uploads at " +
        std::to_string(kFixedRate) + "/s: ack p50 " +
        std::to_string(Quantile(p.ack_ms, 0.5)) + " p99 " +
        std::to_string(Quantile(p.ack_ms, 0.99)) + " ms, release p50 " +
        std::to_string(Quantile(p.release_ms, 0.5)) + " p99 " +
        std::to_string(Quantile(p.release_ms, 0.99)) +
        " ms, generator late p50 " + std::to_string(Quantile(p.late_ms, 0.5)) +
        " p99 " + std::to_string(Quantile(p.late_ms, 0.99)) + " max " +
        std::to_string(Quantile(p.late_ms, 1.0)) + " ms; saturation " +
        std::to_string(p.ingest_users_per_s) + " users/s, " +
        std::to_string(p.users_per_cpu_s) + " users/user-cpu-s, " +
        std::to_string(p.system_ms_per_upload) + " kernel cpu-ms and " +
        std::to_string(p.switches_per_upload) + " context switches per upload");
  };
  describe("untraced", *phases);

  // ---- checks (outside the timed sections)
  std::vector<uint64_t> uploaded(next_id);
  for (size_t i = 0; i < next_id; ++i) uploaded[i] = i;
  result.Reject("released once",
                CheckReleasedOnce(std::vector<uint64_t>(
                                      rig->released_ids.get(),
                                      rig->released_ids.get() + rig->num_released),
                                  uploaded));
  std::vector<std::pair<uint64_t, uint64_t>> acked;
  for (size_t i = 0; i < next_id; ++i) acked.emplace_back(i + 1, 1);
  result.Reject("acked frames journaled", CheckAckedInJournal(journal_path, acked));
  {
    core::BatchReleaseEngine::Config config;
    config.num_threads = options.host_threads;
    core::BatchReleaseEngine engine(rig->mech.get(), config);
    auto reference = engine.ReleaseAllFull(
        std::span<const region::RegionTrajectory>(devices->users.data(), next_id),
        options.seed);
    result.Reject("batch reference", reference.status());
    if (reference.ok()) {
      for (size_t i = 0; i < next_id; ++i) {
        if (ReleaseDigest((*reference)[i]) != rig->digests[i]) {
          result.Reject("stream equals batch",
                        Status::FailedPrecondition(
                            "user " + std::to_string(i) +
                            " streamed release differs from ReleaseAllFull"));
          break;
        }
      }
      // The streamed releases equal the reference, so the analytics the
      // sink folded are checked against a tally of the reference.
      std::vector<model::Trajectory> released;
      released.reserve(next_id);
      for (const auto& r : *reference) released.push_back(r.trajectory);
      if (!(rig->analytics->hotspots()->Finalize() ==
            TallyHotspots(*time, released, kHotspotBinMinutes, kHotspotEta))) {
        result.Reject("hotspots", Status::FailedPrecondition(
                                      "finalized hotspots differ from the tally"));
      }
      if (!(rig->analytics->top_k()->Finalize() ==
            TallyTopK(*time, released, kTopKWindowMinutes, kTopK))) {
        result.Reject("top-k", Status::FailedPrecondition(
                                   "finalized top-k differs from the tally"));
      }
    }
    result.Reject("analytics latch", rig->analytics->status());
  }
  std::filesystem::remove(journal_path);

  if (options.trace) {
    describe("traced", *traced);
    const double uploads = static_cast<double>(next_id);
    const double frames = Find(snap, "trajldp_ingest_frames_total").value;
    result.Add("core.queue_wait_s",
               Find(snap, "trajldp_collector_queue_wait_seconds").Mean(), "s");
    result.Add("core.queue_high_water",
               Find(snap, "trajldp_collector_queue_high_water").value, "count");
    result.Add("core.collector_reconstruct_s",
               Find(snap, "trajldp_collector_reconstruct_seconds").Mean(), "s");
    result.Add("io.journal_append_s",
               Find(snap, "trajldp_journal_append_seconds").Mean(), "s");
    result.Add("io.journal_sync_s",
               Find(snap, "trajldp_journal_sync_seconds").Mean(), "s");
    result.Add("io.fsyncs_per_upload",
               Find(snap, "trajldp_journal_fsyncs").value / uploads, "count");
    result.Add("io.wire_bytes_per_upload",
               (Find(snap, "trajldp_ingest_bytes_read_total").value +
                Find(snap, "trajldp_ingest_bytes_written_total").value) /
                   uploads,
               "bytes");
    result.Add("net.upload_s",
               tracer.TotalSeconds("net.upload") / traced->uploads, "s");
    result.Add("net.ack_p50_ms", Quantile(traced->ack_ms, 0.50), "ms");
    result.Add("net.ack_p99_ms", Quantile(traced->ack_ms, 0.99), "ms");
    result.Add("net.reactor_wakeups_per_frame",
               frames > 0 ? Find(snap, "trajldp_reactor_wakeups_total").value / frames
                          : 0.0,
               "count");
    result.Add("net.frames_resent", static_cast<double>(totals.resent.load()),
               "count");
    result.Add("net.reconnects", static_cast<double>(totals.reconnects.load()),
               "count");
    // From the untraced half: kernel work the user-mode figure leaves out.
    result.Add("ingest.kernel_cpu_ms_per_upload", phases->system_ms_per_upload,
               "ms");
    result.Add("ingest.switches_per_upload", phases->switches_per_upload,
               "count");
    result.Add("analytics.consume_s",
               tracer.TotalSeconds("analytics.consume") /
                   static_cast<double>(traced->uploads),
               "s");
    result.Add("analytics.memory_bytes",
               static_cast<double>(rig->analytics->ApproxMemoryBytes()), "bytes");
    result.Add("obs.scrape_s", scrapes > 0 ? scrape_s / scrapes : 0.0, "s");
    // The devices' domain: the server side never perturbs.
    const auto& stats = devices->domain;
    const double hits = static_cast<double>(stats.weight_hits + stats.suffix_hits);
    const double misses =
        static_cast<double>(stats.weight_misses + stats.suffix_misses);
    result.Add("core.domain_miss_ratio", misses / std::max(1.0, hits + misses),
               "ratio");
    result.Add("core.domain_rows",
               static_cast<double>(stats.weight_rows + stats.suffix_rows), "count");
    result.Add("region.edges", static_cast<double>(rig->mech->graph().num_edges()),
               "count");
    AddTraceSummary(tracer, result);
    AddOverhead("setup_s", Median(setup_s), traced_setup_s, result);
    AddOverhead("users_per_user_cpu_s", phases->users_per_cpu_s,
                traced->users_per_cpu_s, result);
    AddOverhead("peak_rss_mb", peak_rss_untraced_mb, peak_rss_traced_mb, result);
    TRAJLDP_RETURN_NOT_OK(WriteSpans(tracer, options));
  } else {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("users_per_user_cpu_s", phases->users_per_cpu_s, "users/cpu-s");
    result.Add("peak_rss_mb", peak_rss_untraced_mb, "MiB");
  }
  return result;
}

}  // namespace ldpbench
