// End-to-end consistency campaign, run under the ctest label `campaign`
// (CI runs a larger sweep via tools/campaign; this keeps a fast,
// deterministic slice in the default test suite).
#include <gtest/gtest.h>

#include "check/campaign.hpp"

namespace dstage::check {
namespace {

TEST(CampaignTest, MixedSchemeCampaignPassesAllInvariants) {
  CampaignOptions opts;
  opts.gen.count = 20;
  opts.gen.seed = 3;
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.schedules, 20);
  EXPECT_EQ(result.passed, 20);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
}

TEST(CampaignTest, VerdictIndependentOfThreadCount) {
  CampaignOptions opts;
  opts.gen.count = 12;
  opts.gen.seed = 11;
  opts.shrink = false;
  opts.threads = 1;
  const CampaignResult serial = run_campaign(opts);
  opts.threads = 4;
  const CampaignResult parallel = run_campaign(opts);
  EXPECT_EQ(serial.passed, parallel.passed);
  EXPECT_EQ(serial.total_failures_injected, parallel.total_failures_injected);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].schedule, parallel.failures[i].schedule);
  }
}

TEST(CampaignTest, MemoryGovernedCampaignExercisesSpillAndBackpressure) {
  // A 512 MB/server budget on the Table-II-sized campaign workload is
  // tight enough that both relief mechanisms fire (versions spilled to the
  // PFS, puts bounced with RetryLater) while every recovery invariant
  // still holds — the oracle's read-equivalence and durability checks run
  // against memory-governed references.
  CampaignOptions opts;
  opts.gen.count = 8;
  opts.gen.seed = 3;
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.gen.memory_budget_mb = 512;
  opts.threads = 2;
  const CampaignResult result = run_campaign(opts);
  EXPECT_EQ(result.passed, 8);
  EXPECT_TRUE(result.ok());
  for (const CampaignFailure& f : result.failures) {
    ADD_FAILURE() << f.schedule.repro() << "\n" << f.report.summary();
  }
  EXPECT_GT(result.spilled_versions, 0u);
  EXPECT_GT(result.puts_rejected, 0u);
  EXPECT_GT(result.backpressure_waits, 0u);
}

TEST(CampaignTest, SkipReplaySabotageFailsAndShrinks) {
  CampaignOptions opts;
  opts.gen.count = 12;
  opts.gen.seed = 1;
  // Logging schemes only: the sabotage disables their replay stage.
  opts.gen.schemes = {core::Scheme::kUncoordinated, core::Scheme::kHybrid};
  opts.threads = 2;
  opts.sabotage = Sabotage::kSkipReplay;
  opts.max_shrunk = 2;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.ok());
  // The shrinker must deliver a small reproducer for the sabotage.
  bool small_repro = false;
  for (const CampaignFailure& f : result.failures) {
    EXPECT_FALSE(f.report.ok());
    if (f.shrink_attempts > 0 && f.shrunk.failures.size() <= 2) {
      small_repro = true;
    }
  }
  EXPECT_TRUE(small_repro);
}

// A reference run that deadlocks (two tenants under a 512 MB budget cannot
// finish) is the verdict of every schedule sharing that configuration: an
// invariant-4 violation, computed once, while other configurations in the
// same cache still run clean.
TEST(CampaignTest, FailedReferenceRunIsAVerdictNotAnAbort) {
  const Schedule stuck = Schedule::parse(
      "cc1;id=1;sch=un;ts=12;sp=3;ap=3;lp=0;res=0;mtbf=0;mb=512;tenants=2");
  ReferenceCache cache;
  const OracleReport report = check_schedule(stuck, cache);
  ASSERT_EQ(report.violations.size(), 1u) << report.summary();
  EXPECT_EQ(report.violations[0].invariant, 4);
  EXPECT_NE(report.violations[0].detail.find(
                "reference run did not terminate"),
            std::string::npos)
      << report.violations[0].detail;

  // Same configuration, different id: same cached verdict, no re-run.
  Schedule sibling = stuck;
  sibling.id = 2;
  const auto entry = cache.reference_for(stuck);
  EXPECT_EQ(cache.reference_for(sibling), entry);
  EXPECT_FALSE(entry->failure.empty());
  EXPECT_EQ(check_schedule(sibling, cache).summary(), report.summary());

  Schedule roomy = stuck;
  roomy.memory_budget_mb = 1024;
  const OracleReport ok = check_schedule(roomy, cache);
  EXPECT_TRUE(ok.ok()) << ok.summary();
}

}  // namespace
}  // namespace dstage::check
