#ifndef LDPBENCH_CHECKS_H_
#define LDPBENCH_CHECKS_H_

// Correctness checks on the program's outputs. Where it can, each check
// recomputes what the output must satisfy from public data with its own
// code (a DP, a tally, a probability table) instead of comparing against
// stored output. All of them run outside the timed sections.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/windowed_topk.h"
#include "common/status.h"
#include "core/collector_pipeline.h"
#include "core/ngram.h"
#include "core/reconstruction.h"
#include "eval/hotspots.h"
#include "model/reachability.h"
#include "model/time_domain.h"
#include "model/trajectory.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"

namespace ldpbench {

using trajldp::Status;

/// `regions` has `expected_len` entries and every consecutive pair is an
/// edge of the region graph.
Status CheckRegionWalk(const trajldp::region::RegionGraph& graph,
                       std::span<const trajldp::region::RegionId> regions,
                       size_t expected_len);

/// A non-smoothed POI-level release: one point per released region,
/// strictly increasing timesteps, each POI open at its timestep and inside
/// its released region, and each point reachable from the previous one at
/// the configured speed (haversine distance ≤ speed × gap, §4.1).
Status CheckPoiTrajectory(const trajldp::region::StcDecomposition& decomp,
                          const trajldp::model::ReachabilityConfig& reach,
                          const trajldp::model::Trajectory& trajectory,
                          const trajldp::region::RegionTrajectory& regions);

/// The minimum of the §5.5 objective over `problem`'s candidates, by the
/// benchmark's own forward DP over the region graph's edges. +inf when no
/// feasible sequence exists.
double OptimalObjective(const trajldp::core::ReconstructionProblem& problem);

/// `released` is an assignment over `problem`'s candidates whose objective
/// equals OptimalObjective (relative tolerance 1e-9).
Status CheckOptimal(const trajldp::core::ReconstructionProblem& problem,
                    const trajldp::region::RegionTrajectory& released);

/// Every id of `expected` appears in `released` exactly once, and nothing
/// else does.
Status CheckReleasedOnce(std::vector<uint64_t> released,
                         std::vector<uint64_t> expected);

/// Reopens the journal at `path` with io::FrameJournal and requires every
/// (stream, seq) in `acked` among its records.
Status CheckAckedInJournal(
    const std::string& path,
    const std::vector<std::pair<uint64_t, uint64_t>>& acked);

/// A device report for a trajectory of length `len`: L + n − 1 n-grams
/// (n clamped to L) of lengths n, or fewer at the ends, at consistent
/// positions, each a walk in the region graph, and ε′ × count == ε.
Status CheckReport(const trajldp::region::RegionGraph& graph,
                   const trajldp::core::PerturbedNgramSet& report, size_t len,
                   int n, double epsilon_prime, double epsilon);

/// Exponential-mechanism probabilities of the unigram draw at true region
/// `x`: Pr[w] ∝ exp(−ε′ d(x, w) / 2Δ₁) with Δ₁ = diameter, the public
/// bound RegionDistance::MaxDistance() on every region distance.
std::vector<double> UnigramEm(const trajldp::region::RegionDistance& distance,
                              trajldp::region::RegionId x,
                              double epsilon_prime, double diameter);

/// Marginal of the first slot of the bigram draw at true (x1, x2):
/// Pr[w1] ∝ exp(−s d(x1, w1)) · Σ_{u ∈ adj(w1)} exp(−s d(x2, u)) with
/// s = ε′ / 2Δ₂ and Δ₂ = 2 × diameter.
std::vector<double> BigramFirstSlotEm(
    const trajldp::region::RegionDistance& distance,
    const trajldp::region::RegionGraph& graph, trajldp::region::RegionId x1,
    trajldp::region::RegionId x2, double epsilon_prime, double diameter);

struct GofResult {
  double statistic = 0.0;
  int dof = 0;
  double p_value = 1.0;
};

/// Pearson χ² goodness of fit of `counts` against `probs` (same length),
/// with outcomes pooled, in order of probability, into `bins` groups of
/// about equal expected mass.
GofResult ChiSquareGof(std::span<const uint64_t> counts,
                       std::span<const double> probs, size_t bins);

/// Fails when ChiSquareGof's p-value is below 1e-4.
Status CheckFrequencies(std::span<const uint64_t> counts,
                        std::span<const double> probs, const std::string& what);

/// Hotspots over POIs, tallied from the released trajectories: per
/// (POI, bin) unique visitors, maximal runs of bins at or above η.
std::vector<trajldp::eval::Hotspot> TallyHotspots(
    const trajldp::model::TimeDomain& time,
    std::span<const trajldp::model::Trajectory> released, int bin_minutes,
    int eta);

/// Per window, the k POIs with the most unique visitors (count desc, POI
/// id asc), tallied from the released trajectories.
std::vector<std::vector<trajldp::analytics::WindowTopEntry>> TallyTopK(
    const trajldp::model::TimeDomain& time,
    std::span<const trajldp::model::Trajectory> released, int window_minutes,
    size_t k);

/// Bit-identical releases.
bool SameRelease(const trajldp::core::FullRelease& a,
                 const trajldp::core::FullRelease& b);

/// A 64-bit FNV-1a digest of every field SameRelease compares, so a
/// stream of releases can be checked without keeping them.
uint64_t ReleaseDigest(const trajldp::core::FullRelease& release);

}  // namespace ldpbench

#endif  // LDPBENCH_CHECKS_H_
