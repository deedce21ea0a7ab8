#ifndef LDPBENCH_WORLDS_H_
#define LDPBENCH_WORLDS_H_

// The benchmark's inputs. Worlds (POI databases) are public data and fixed;
// the users that move through them are drawn from the run's --seed.

#include <cstdint>
#include <vector>

#include "common/status_or.h"
#include "core/mechanism.h"
#include "eval/dataset.h"
#include "model/poi_database.h"
#include "model/trajectory.h"
#include "region/decomposition.h"

namespace ldpbench {

using trajldp::Status;
using trajldp::StatusOr;

/// Trajectory lengths the Taxi-Foursquare generator draws (|τ| ~ U(3, 8)).
inline constexpr int kCityMinLen = 3;
inline constexpr int kCityMaxLen = 8;
inline constexpr int kCityLengths = kCityMaxLen - kCityMinLen + 1;

/// The Taxi-Foursquare-like city at the paper's defaults (|P| = 2000,
/// g_t = 10 min, 8 km/h). The world itself is generated from a fixed seed,
/// so every run measures the same city.
StatusOr<trajldp::eval::Dataset> MakeCity();

/// The paper's mechanism defaults on `city`: n = 2, ε = 5, g_s = 4 with
/// coarse grids {2, 1}, hourly base intervals, strict EM sensitivity.
trajldp::core::NGramConfig CityConfig(const trajldp::eval::Dataset& city);

/// Draws POI-level trajectories over `city` from `seed`, keeps those the
/// §6.2 filter accepts, and returns `per_length` of each length 3..8,
/// interleaved (3, 4, ..., 8, 3, 4, ...) so every prefix of a multiple of
/// six users holds the same length mix.
StatusOr<trajldp::model::TrajectorySet> CityTrajectories(
    const trajldp::eval::Dataset& city, uint64_t seed, size_t per_length);

/// Converts trajectories to region sequences (Figure 1, step 1).
StatusOr<std::vector<trajldp::region::RegionTrajectory>> ToRegions(
    const trajldp::region::StcDecomposition& decomp,
    const trajldp::model::TrajectorySet& trajectories);

/// A square lattice of 2000 always-open POIs at 1 km spacing, categories
/// cycling over the campus tree's leaves.
StatusOr<trajldp::model::PoiDatabase> MakeLatticeDb();

/// 5×5 grid, one whole-day interval, κ = 1: a 225-region world whose
/// per-user reconstruction costs about a tenth of a millisecond.
trajldp::core::NGramConfig LatticeConfig();

/// `count` region sequences of length `len` with uniformly drawn regions.
std::vector<trajldp::region::RegionTrajectory> LatticeUsers(size_t num_regions,
                                                            uint64_t seed,
                                                            size_t count,
                                                            size_t len);

}  // namespace ldpbench

#endif  // LDPBENCH_WORLDS_H_
