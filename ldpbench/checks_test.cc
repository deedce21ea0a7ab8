// The benchmark's own tests: each correctness check accepts a good output
// and rejects a deliberately broken one. Run with
//   python3 ldpbench/run.py --selftest
// Exit code 0 when every case holds.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/stream_analytics.h"
#include "checks.h"
#include "core/batch_release_engine.h"
#include "core/mechanism.h"
#include "io/journal.h"
#include "region/region_index.h"
#include "worlds.h"

namespace {

using namespace trajldp;  // NOLINT: test-local brevity
using namespace ldpbench;  // NOLINT

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}
void ExpectOk(const Status& status, const std::string& what) {
  Expect(status.ok(), what + (status.ok() ? "" : " (" + status.ToString() + ")"));
}
void ExpectRejected(const Status& status, const std::string& what) {
  Expect(!status.ok(), what + " is rejected");
}

// Histogram of `draws` samples from `probs`.
std::vector<uint64_t> Draw(const std::vector<double>& probs, size_t draws,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> counts(probs.size(), 0);
  for (size_t i = 0; i < draws; ++i) ++counts[rng.Discrete(probs)];
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch =
      std::filesystem::path(argc > 0 ? argv[0] : ".").parent_path().string();
  auto db = MakeLatticeDb();
  auto time = model::TimeDomain::Create(10);
  if (!db.ok() || !time.ok()) return 2;
  auto mech = core::NGramMechanism::Build(&*db, *time, LatticeConfig());
  if (!mech.ok()) return 2;
  const auto& graph = mech->graph();
  const size_t num_regions = mech->decomposition().num_regions();
  const auto users = LatticeUsers(num_regions, 5, 40, 5);
  const uint64_t seed = 17;

  // ---- a region sequence with a step the region graph forbids
  core::BatchReleaseEngine engine(&*mech);
  auto releases = engine.ReleaseAllFull(users, seed);
  if (!releases.ok()) return 2;
  const auto& good = (*releases)[0];
  ExpectOk(CheckRegionWalk(graph, good.regions, users[0].size()),
           "released region sequence is a walk");
  region::RegionId a = 0, b = 0;
  for (region::RegionId r = 1; r < num_regions && a == b; ++r) {
    if (!graph.HasEdge(0, r)) b = r;
  }
  Expect(a != b, "the lattice graph has a forbidden step");
  ExpectRejected(CheckRegionWalk(graph, std::vector<region::RegionId>{a, b}, 2),
                 "a forbidden step");
  ExpectRejected(CheckRegionWalk(graph, good.regions, users[0].size() + 1),
                 "a sequence of the wrong length");

  // ---- POI-level trajectory properties
  const core::FullRelease* plain = nullptr;
  for (const auto& r : *releases) {
    if (!r.smoothed && r.trajectory.size() >= 2) plain = &r;
  }
  Expect(plain != nullptr, "a non-smoothed release exists");
  if (plain != nullptr) {
    const auto& reach = mech->config().reachability;
    ExpectOk(CheckPoiTrajectory(mech->decomposition(), reach, plain->trajectory,
                                plain->regions),
             "non-smoothed trajectory is feasible");
    model::Trajectory reversed = plain->trajectory;
    std::swap(reversed.point(0).t, reversed.point(1).t);
    ExpectRejected(CheckPoiTrajectory(mech->decomposition(), reach, reversed,
                                      plain->regions),
                   "timesteps out of order");
    model::Trajectory moved = plain->trajectory;
    moved.point(0).poi = (moved.point(0).poi + 997) % db->size();
    ExpectRejected(CheckPoiTrajectory(mech->decomposition(), reach, moved,
                                      plain->regions),
                   "a POI outside its released region");
  }

  // ---- a non-optimal assignment
  {
    const core::CollectorPipeline pipe = mech->pipeline();
    Rng user_rng = core::CollectorPipeline::UserRng(seed, 0);
    core::SamplerWorkspace sampler;
    core::PerturbedNgramSet z;
    ExpectOk(pipe.PerturbInto(users[0], user_rng, sampler, z), "re-perturb");
    std::vector<region::RegionId> all(num_regions);
    for (size_t r = 0; r < num_regions; ++r) all[r] = static_cast<region::RegionId>(r);
    auto problem = core::ReconstructionProblem::Create(
        &mech->distance(), &graph, users[0].size(), z, all);
    ExpectOk(problem.status(), "problem");
    if (problem.ok()) {
      ExpectOk(CheckOptimal(*problem, good.regions), "released sequence is optimal");
      bool rejected = false;
      for (region::RegionId r = 0; r < num_regions && !rejected; ++r) {
        region::RegionTrajectory worse = good.regions;
        if (r == worse[0] || !graph.HasEdge(r, worse[1])) continue;
        worse[0] = r;
        rejected = !CheckOptimal(*problem, worse).ok();
      }
      Expect(rejected, "a feasible but non-optimal assignment is rejected");
    }
  }

  // ---- a user released twice or missing
  ExpectOk(CheckReleasedOnce({2, 0, 1}, {0, 1, 2}), "every user once");
  ExpectRejected(CheckReleasedOnce({0, 1, 1, 2}, {0, 1, 2}), "a user released twice");
  ExpectRejected(CheckReleasedOnce({0, 2}, {0, 1, 2}), "a missing user");
  ExpectRejected(CheckReleasedOnce({0, 1, 2, 7}, {0, 1, 2}),
                 "a release for a user who never uploaded");

  // ---- an acked frame missing from the journal
  {
    const std::string path = scratch + "/checks_test.journal";
    std::filesystem::remove(path);
    {
      auto journal = io::FrameJournal::Open(path, io::FrameJournal::Options());
      ExpectOk(journal.status(), "journal open");
      if (journal.ok()) {
        ExpectOk(journal->Append(1, 1, "frame-one"), "append");
        ExpectOk(journal->Append(2, 1, "frame-two"), "append");
        ExpectOk(journal->Close(), "close");
      }
    }
    ExpectOk(CheckAckedInJournal(path, {{1, 1}, {2, 1}}), "acked frames journaled");
    ExpectRejected(CheckAckedInJournal(path, {{1, 1}, {3, 1}}),
                   "an acked frame missing from the journal");
    std::filesystem::remove(path);
  }

  // ---- device reports
  {
    core::BatchReleaseEngine devices(&mech->perturber());
    auto reports = devices.ReleaseAll(users, seed);
    ExpectOk(reports.status(), "perturb");
    if (reports.ok()) {
      const auto& p = mech->perturber();
      const size_t len = users[0].size();
      const double eps = mech->config().epsilon;
      const int n = mech->config().n;
      auto report = (*reports)[0];
      ExpectOk(CheckReport(graph, report, len, n, p.EpsilonPerPerturbation(len), eps),
               "report shape and budget");
      ExpectRejected(CheckReport(graph, report, len, n,
                                 p.EpsilonPerPerturbation(len) * 1.01, eps),
                     "a report spending more than epsilon");
      auto short_report = report;
      short_report.pop_back();
      ExpectRejected(CheckReport(graph, short_report, len, n,
                                 p.EpsilonPerPerturbation(len), eps),
                     "a report missing an n-gram");
    }
  }

  // ---- an exponential-mechanism histogram drawn at the wrong ε
  {
    constexpr size_t kDraws = 20000;
    const region::RegionTrajectory tau = {3, 100, 200};
    std::vector<region::RegionTrajectory> copies(kDraws, tau);
    core::BatchReleaseEngine devices(&mech->perturber());
    auto reports = devices.ReleaseAll(copies, 99);
    const double eps_prime = mech->perturber().EpsilonPerPerturbation(tau.size());
    const double diameter = mech->distance().MaxDistance();
    const auto probs = UnigramEm(mech->distance(), tau[0], eps_prime, diameter);
    const auto bigram =
        BigramFirstSlotEm(mech->distance(), graph, tau[0], tau[1], eps_prime, diameter);
    if (reports.ok()) {
      std::vector<uint64_t> unigram(num_regions, 0), first(num_regions, 0);
      for (const auto& report : *reports) {
        for (const auto& gram : report) {
          if (gram.a == 1 && gram.b == 1) ++unigram[gram.regions[0]];
          if (gram.a == 1 && gram.b == 2) ++first[gram.regions[0]];
        }
      }
      ExpectOk(CheckFrequencies(unigram, probs, "unigram"),
               "the perturber's unigram draws fit the EM");
      ExpectOk(CheckFrequencies(first, bigram, "bigram"),
               "the perturber's bigram first slots fit the EM");
    }
    ExpectOk(CheckFrequencies(Draw(probs, kDraws, 1), probs, "exact"),
             "draws at the right epsilon fit");
    for (double factor : {2.0, 0.5}) {
      const auto wrong =
          UnigramEm(mech->distance(), tau[0], eps_prime * factor, diameter);
      ExpectRejected(CheckFrequencies(Draw(wrong, kDraws, 2), probs, "wrong"),
                     "a histogram drawn at " + std::to_string(factor) + "x epsilon");
    }
  }

  // ---- analytics tallies against the streaming aggregates
  {
    analytics::StreamAnalyticsConfig config;
    config.hotspots.emplace();
    config.hotspots->entity = eval::HotspotSpec::Entity::kPoi;
    config.hotspots->bin_minutes = 60;
    config.hotspots->eta = 2;
    config.top_k.emplace();
    config.top_k->window_minutes = 60;
    config.top_k->k = 3;
    auto bundle = analytics::StreamAnalytics::Create(&*db, *time, config);
    std::vector<model::Trajectory> released;
    for (size_t i = 0; i < releases->size(); ++i) {
      released.push_back((*releases)[i].trajectory);
      // A busy POI so hotspots exist: every user visits POI 0 at 10:00.
      released.back().Append(0, 60);
    }
    if (bundle.ok()) {
      for (size_t i = 0; i < released.size(); ++i) {
        core::UserRelease r;
        r.user_id = i;
        r.release.trajectory = released[i];
        bundle->Consume(r);
      }
      const auto hotspots = TallyHotspots(*time, released, 60, 2);
      Expect(!hotspots.empty(), "the tally finds hotspots");
      Expect(bundle->hotspots()->Finalize() == hotspots, "hotspots equal the tally");
      Expect(bundle->top_k()->Finalize() == TallyTopK(*time, released, 60, 3),
             "top-k equals the tally");
      released.pop_back();
      Expect(!(bundle->hotspots()->Finalize() == TallyHotspots(*time, released, 60, 2)),
             "hotspots over a stream with an extra user differ from the tally");
      Expect(!(bundle->top_k()->Finalize() == TallyTopK(*time, released, 60, 3)),
             "top-k over a stream with an extra user differs from the tally");
    }
  }

  // ---- release equality
  {
    core::FullRelease changed = good;
    changed.poi_attempts += 1;
    Expect(SameRelease(good, good) && !SameRelease(good, changed),
           "release comparison sees a changed field");
    Expect(ReleaseDigest(good) == ReleaseDigest(good) &&
               ReleaseDigest(good) != ReleaseDigest(changed),
           "release digest sees a changed attempt count");
    core::FullRelease moved = good;
    if (!moved.regions.empty()) moved.regions.back() += 1;
    Expect(ReleaseDigest(good) != ReleaseDigest(moved),
           "release digest sees a changed region");
  }

  std::cout << (failures == 0 ? "all checks behave\n" : "FAILURES\n");
  return failures == 0 ? 0 : 1;
}
