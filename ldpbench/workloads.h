#ifndef LDPBENCH_WORKLOADS_H_
#define LDPBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status_or.h"
#include "core/mechanism.h"
#include "model/poi_database.h"
#include "model/time_domain.h"
#include "trace.h"

namespace ldpbench {

using trajldp::Status;
using trajldp::StatusOr;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout: journals and span files.
  std::string out_dir;
  /// Worker threads the host offers (nproc).
  size_t host_threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. `notes` are printed, one per line, before the
/// result line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check.
  void Reject(const std::string& what, const Status& status) {
    if (status.ok()) return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what + ": " + status.ToString());
  }
};

StatusOr<RunResult> RunCityRelease(const RunOptions& options);
StatusOr<RunResult> RunCityPerturb(const RunOptions& options);
StatusOr<RunResult> RunDeviceIngest(const RunOptions& options);

// ------------------------------------------------------------ helpers

/// Set-ups per city run; setup_s is their median. device_ingest repeats
/// its much shorter set-up more often (ingest.cc).
inline constexpr int kSetupRepeats = 3;

/// Linear-interpolated quantile (q in [0, 1]) of `values`.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// This process's CPU use so far, all threads (getrusage).
struct CpuUse {
  double user_s = 0.0;    // user-mode CPU seconds
  double system_s = 0.0;  // kernel-mode CPU seconds
  double switches = 0.0;  // voluntary + involuntary context switches
};
CpuUse ProcessCpu();

/// User-mode CPU seconds this process has used so far: the gated
/// throughput's denominator.
inline double ProcessUserCpuSeconds() { return ProcessCpu().user_s; }

/// Traced runs only: times the region layer's three public builds
/// (decomposition, distance table, graph) in spans on `tb`.
Status TraceRegionBuilds(const trajldp::model::PoiDatabase& db,
                                   const trajldp::model::TimeDomain& time,
                                   const trajldp::core::NGramConfig& config,
                                   Tracer::ThreadBuffer* tb);

/// Adds every layer's span self time as self.<layer>_s and the three
/// region builds' times.
void AddTraceSummary(const Tracer& tracer, RunResult& result);

/// A "trace overhead:" note: untraced and traced value and difference.
void AddOverhead(const std::string& metric, double untraced, double traced,
                 RunResult& result);

/// Writes the spans to <out_dir>/<workload>-seed<N>.spans.tsv.
Status WriteSpans(const Tracer& tracer, const RunOptions& options);

/// A per-round seed: distinct rounds and runs draw distinct randomness.
inline uint64_t RoundSeed(uint64_t seed, uint64_t round) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace ldpbench

#endif  // LDPBENCH_WORKLOADS_H_
